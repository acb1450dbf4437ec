"""Withdrawal mechanisms: which waiting requests get processed each period.

Every mechanism is a queue order plus a capacity map: order the waiting
list, then take the largest prefix whose total stake fits the capacity
that the mechanism derives from the sliding-window slack (min_slack):

  * MINSLACK: FCFS order, capacity = slack.
  * PRIO-MINSLACK: cost-descending order, capacity = slack.
  * alpha-MINSLACK: cost-descending, capacity = round_half_down(alpha * slack).
  * CONSTANT(rate): cost-descending (or FCFS), capacity = min(rate, slack).

Prefixes are strict: the scan stops at the first request that does not fit,
even if a later, smaller request would. All reproduced experiments use unit
stakes, where strict prefix and greedy fill coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Sequence

from .core import ExitRequest, QueueState, RationalLike, exact_fraction, min_slack
from .errors import ConfigError, InvalidAlpha

__all__ = [
    "Mechanism",
    "round_half_down",
    "alpha_capacity",
]


def round_half_down(x: Fraction) -> int:
    """Round to the nearest integer; exact halves round down."""
    return math.ceil(x - Fraction(1, 2))


def alpha_capacity(alpha: RationalLike, slack_value: int) -> int:
    """Scaled capacity used by alpha-MINSLACK."""
    a = exact_fraction(alpha)
    if not 0 < a <= 1:
        raise InvalidAlpha(f"alpha must lie in (0, 1], got {a}")
    return round_half_down(a * slack_value)


def _fcfs(waiting: Sequence[ExitRequest]) -> Sequence[ExitRequest]:
    # QueueState keeps its waiting list in arrival order.
    return waiting


def _by_cost_desc(waiting: Sequence[ExitRequest], sort_key: str) -> list[ExitRequest]:
    # One stable sort of the arrival-ordered list: reverse=True keeps equal
    # keys in arrival order, so equal keys stay FCFS.
    return sorted(waiting, key=attrgetter(sort_key), reverse=True)


def _prefix(ordered: Sequence[ExitRequest], capacity: int) -> tuple[ExitRequest, ...]:
    """Largest strict prefix whose total stake fits the capacity."""
    taken: list[ExitRequest] = []
    used = 0
    for r in ordered:
        if used + r.stake > capacity:
            break
        taken.append(r)
        used += r.stake
    return tuple(taken)


def _priority_key(sort_key: str) -> str:
    if sort_key not in ("cost", "bid"):
        raise ConfigError(f"unknown sort key {sort_key!r} (expected 'cost' or 'bid')")
    return sort_key


@dataclass(frozen=True)
class Mechanism:
    """A queue order plus a capacity map; ``select`` applies both.

    ``order`` is ``"fcfs"`` (arrival order), ``"cost"`` or ``"bid"``
    (highest first, FCFS among equals). Build via the factory classmethods.
    """

    name: str
    order: str
    alpha: Fraction | None = None
    rate: int | None = None

    @classmethod
    def minslack(cls) -> "Mechanism":
        return cls("minslack", "fcfs")

    @classmethod
    def prio_minslack(cls, sort_key: str = "cost") -> "Mechanism":
        """Cost-descending order; ``sort_key='bid'`` is the pay-your-bid variant."""
        return cls("prio-minslack", _priority_key(sort_key))

    @classmethod
    def alpha_minslack(cls, alpha: RationalLike, sort_key: str = "cost") -> "Mechanism":
        a = exact_fraction(alpha)
        if not 0 < a <= 1:
            raise InvalidAlpha(f"alpha must lie in (0, 1], got {a}")
        return cls(f"alpha-minslack({float(a):g})", _priority_key(sort_key), alpha=a)

    @classmethod
    def constant(cls, rate: int, sort_key: str = "cost") -> "Mechanism":
        """Fixed-rate baseline; ``sort_key='fcfs'`` makes it a plain rate limiter."""
        if rate < 1:
            raise ConfigError(f"constant mechanism needs a positive rate, got {rate}")
        order = sort_key if sort_key == "fcfs" else _priority_key(sort_key)
        return cls(f"constant({int(rate)})", order, rate=int(rate))

    def capacity(self, slack: int) -> int:
        """Stake this mechanism processes when ``slack`` is free."""
        if self.alpha is not None:
            return alpha_capacity(self.alpha, slack)
        if self.rate is not None:
            return min(self.rate, slack)
        return slack

    def select(self, state: QueueState) -> tuple[ExitRequest, ...]:
        if self.order == "fcfs":
            ordered = _fcfs(state.waiting)
        else:
            ordered = _by_cost_desc(state.waiting, self.order)
        return _prefix(ordered, self.capacity(min_slack(state)))
