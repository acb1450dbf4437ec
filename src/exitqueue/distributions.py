"""Sampling distributions for arrival counts and waiting costs.

Finite discrete distributions drive arrival counts; costs may additionally
be uniform, exponential, or Pareto. Parameter conventions that differ
across libraries (exponential rate vs scale, Pareto shape/scale vs Lomax)
are explicit enum payloads so a config states exactly what it means.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "Discrete",
    "Uniform",
    "ExpConvention",
    "Exponential",
    "ParetoConvention",
    "Pareto",
    "ValueDistribution",
]

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class Discrete:
    """Finite distribution over real points (ints for arrival counts).

    ``sample`` draws exactly what ``Generator.choice(points, size, p=probs)``
    draws from the same generator: one uniform per draw, looked up in
    ``cdf``, the cumulative sums of ``probs`` divided by their total, as
    ``choice`` builds them. ``cdf`` and the ``points`` array it indexes are
    built once here and read-only, so they can be shared.
    ``test_discrete_sample_matches_generator_choice`` pins the two together.
    """

    points: tuple[float, ...]
    probs: tuple[float, ...]
    cdf: np.ndarray = field(init=False, repr=False, compare=False)
    _points: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, points, probs) -> None:
        object.__setattr__(self, "points", tuple(points))
        object.__setattr__(self, "probs", tuple(float(p) for p in probs))
        if len(self.points) != len(self.probs) or not self.points:
            raise ConfigError("points and probs must be nonempty and equal length")
        if len(set(self.points)) != len(self.points):
            raise ConfigError(f"duplicate points in {self.points}")
        if not all(p >= 0 for p in self.probs):
            raise ConfigError(f"negative or nan probability in {self.probs}")
        if not abs(sum(self.probs) - 1.0) <= _PROB_TOL:
            raise ConfigError(f"probabilities sum to {sum(self.probs)}, expected 1")
        cdf = np.cumsum(np.asarray(self.probs, dtype=np.float64))
        cdf /= cdf[-1]
        points = np.asarray(self.points)
        cdf.flags.writeable = points.flags.writeable = False
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "_points", points)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._points[self.cdf.searchsorted(rng.random(size), side="right")]

    def as_count_dist(self) -> tuple[tuple[int, float], ...]:
        """(count, prob) atoms; requires all points to be nonnegative ints."""
        atoms = []
        for x, p in zip(self.points, self.probs):
            if not 0 <= x < math.inf or int(x) != x:
                raise ConfigError(f"arrival counts must be nonnegative integers, got {x}")
            atoms.append((int(x), p))
        return tuple(atoms)


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ConfigError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=size)


class ExpConvention(enum.Enum):
    RATE = "rate"
    SCALE = "scale"


@dataclass(frozen=True)
class Exponential:
    param: float
    convention: ExpConvention = ExpConvention.RATE

    def __post_init__(self) -> None:
        if self.param <= 0:
            raise ConfigError(f"exponential parameter must be positive, got {self.param}")

    @property
    def scale(self) -> float:
        if self.convention is ExpConvention.RATE:
            return 1.0 / self.param
        return self.param

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(self.scale, size=size)


class ParetoConvention(enum.Enum):
    # Classical Pareto: support [scale, inf), density ~ shape*scale^shape/x^(shape+1).
    SHAPE_SCALE = "shape-scale"
    # Lomax (shifted to zero): support [0, inf).
    LOMAX = "lomax"


@dataclass(frozen=True)
class Pareto:
    shape: float
    scale: float
    convention: ParetoConvention = ParetoConvention.SHAPE_SCALE

    def __post_init__(self) -> None:
        if self.shape <= 0 or self.scale <= 0:
            raise ConfigError(
                f"pareto needs positive shape and scale, got ({self.shape}, {self.scale})"
            )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # numpy's pareto(a) is Lomax(a, 1) = classical(a, 1) - 1.
        raw = rng.pareto(self.shape, size=size)
        if self.convention is ParetoConvention.SHAPE_SCALE:
            return self.scale * (1.0 + raw)
        return self.scale * raw


ValueDistribution = Union[Discrete, Uniform, Exponential, Pareto]
