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


@pytest.mark.parametrize(
    "probs",
    [(0.55, 0.35, 0.1), (0.3, 0.0, 0.7), (0.0, 0.4, 0.6), (0.3, 0.3, 0.4 + 1e-10),
     tuple(np.random.default_rng(5).dirichlet(np.ones(20))), (1 / 200,) * 200,
     (1 / 300,) * 300],
    ids=["three", "zero-middle", "zero-first", "over-one", "twenty", "byte-index",
         "searched"],
)
def test_points_at_is_searchsorted_right(probs) -> None:
    # The bulk lookup counts the cdf entries at or below each uniform, as
    # searchsorted(side="right") does, on every edge a uniform in [0, 1) can
    # meet: each cdf entry below 1.0 (a zero-probability point repeats one),
    # both of its neighbours, 0.0 and the largest double below 1.0.
    d = Discrete(range(len(probs)), probs)
    edges = d.cdf[d.cdf < 1.0]
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(0.0 <= u) & (u < 1.0)]
    assert u.size >= 3 * (len(probs) - 1)
    assert d.points_at(u).tolist() == d.cdf.searchsorted(u, side="right").tolist()
    # Any shape, and the points' own dtype.
    grid = np.random.default_rng(1).random((7, 50))
    assert np.array_equal(d.points_at(grid), d.cdf.searchsorted(grid, side="right"))
    assert d.points_at(grid).dtype == np.asarray(d.points).dtype


def test_generator_random_fills_a_row_as_it_draws_one() -> None:
    # Every draw fills its rows of count uniforms in place; they must be the
    # doubles random(n) gives, and leave the stream where random(n) does.
    for seed in range(200):
        rows = np.empty((3, 350))
        rng = np.random.default_rng(seed)
        for row in rows:
            rng.random(out=row)
        tail = rng.random(5)
        whole = np.random.default_rng(seed).random(3 * 350 + 5)
        assert np.array_equal(np.concatenate([rows.ravel(), tail]), whole), seed


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
