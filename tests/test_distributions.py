"""Sampling distributions and their parameter conventions."""

from __future__ import annotations

import numpy as np
import pytest

from exitqueue.distributions import (
    Discrete,
    ExpConvention,
    Exponential,
    Pareto,
    ParetoConvention,
    Uniform,
)
from exitqueue.errors import ConfigError


def test_discrete_count_atoms() -> None:
    d = Discrete((0, 1, 5), (0.55, 0.35, 0.1))
    assert d.as_count_dist() == ((0, 0.55), (1, 0.35), (5, 0.1))


def test_discrete_validation() -> None:
    with pytest.raises(ConfigError):
        Discrete((), ())
    with pytest.raises(ConfigError):
        Discrete((1, 1), (0.5, 0.5))
    with pytest.raises(ConfigError):
        Discrete((0, 1), (0.7, 0.7))
    with pytest.raises(ConfigError):
        Discrete((0, 1), (-0.1, 1.1))


def test_discrete_count_atoms_must_be_integers() -> None:
    d = Discrete((0.5, 1.0), (0.5, 0.5))
    with pytest.raises(ConfigError):
        d.as_count_dist()
    with pytest.raises(ConfigError):
        Discrete((-1, 0), (0.5, 0.5)).as_count_dist()


def test_discrete_sampling_hits_only_support() -> None:
    d = Discrete((2, 7), (0.25, 0.75))
    draws = d.sample(np.random.default_rng(0), 2000)
    assert set(np.unique(draws)) == {2.0, 7.0}
    assert abs(draws.mean() - 5.75) < 0.15


@pytest.mark.parametrize(
    "d",
    [
        Discrete((0, 1, 5), (0.55, 0.35, 0.1)),
        Discrete((4,), (1.0,)),
        Discrete((1, 10), (0.0, 1.0)),
        Discrete((1, 10), (1.0, 0.0)),
        Discrete((10, 1), (0.1, 0.9)),
        Discrete((1.0, 2.5, 10.0), (0.3, 0.3, 0.4 + 1e-10)),
        Discrete((1, 2.5), (0.5, 0.5 - 1e-10)),
    ],
    ids=["ints", "one-point", "zero-first", "zero-last", "high-first", "over-one",
         "under-one"],
)
def test_discrete_sample_matches_generator_choice(d) -> None:
    # Every stream in the program rests on this equality: if numpy changes
    # how choice draws, this fails rather than every trial moving silently.
    points, probs = np.asarray(d.points), np.asarray(d.probs)
    for seed in range(500):
        for size in (0, 1, 350):
            ours = d.sample(np.random.default_rng(seed), size)
            theirs = np.random.default_rng(seed).choice(points, size, p=probs)
            assert np.array_equal(ours, theirs) and ours.dtype == theirs.dtype, (seed, size)


def test_discrete_cdf_is_no_part_of_its_identity() -> None:
    d = Discrete((1, 10), (0.9, 0.1))
    assert d == Discrete((1, 10), (0.9, 0.1)) and hash(d) == hash(Discrete((1, 10), (0.9, 0.1)))
    assert repr(d) == "Discrete(points=(1, 10), probs=(0.9, 0.1))"
    assert d.cdf.tolist() == [0.9, 1.0] and not d.cdf.flags.writeable


def test_uniform() -> None:
    u = Uniform(0.0, 1.0)
    draws = u.sample(np.random.default_rng(1), 50_000)
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    assert abs(draws.mean() - 0.5) < 0.005
    with pytest.raises(ConfigError):
        Uniform(1.0, 1.0)


def test_exponential_rate_vs_scale() -> None:
    by_rate = Exponential(0.1, ExpConvention.RATE)
    by_scale = Exponential(10.0, ExpConvention.SCALE)
    assert by_rate.scale == by_scale.scale == 10.0
    draws = by_rate.sample(np.random.default_rng(2), 100_000)
    assert abs(draws.mean() - 10.0) < 0.15
    with pytest.raises(ConfigError):
        Exponential(0.0)


def test_pareto_conventions_differ() -> None:
    classical = Pareto(2.0, 5.0, ParetoConvention.SHAPE_SCALE)
    lomax = Pareto(2.0, 5.0, ParetoConvention.LOMAX)
    # Classical support starts at the scale; Lomax starts at zero.
    rng = np.random.default_rng(3)
    c_draws = classical.sample(rng, 100_000)
    l_draws = lomax.sample(np.random.default_rng(3), 100_000)
    assert c_draws.min() >= 5.0
    assert l_draws.min() < 1.0
    assert abs(np.median(c_draws) - 5.0 * 2 ** 0.5) < 0.1
    with pytest.raises(ConfigError):
        Pareto(0.0, 5.0)
