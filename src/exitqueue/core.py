"""Core state machine for rate-limited validator exit queues.

A protocol processes exit requests subject to sliding-window consistency
constraints: for each constraint (delta, T), the total stake processed in
any T consecutive periods is bounded by a capacity derived from delta and
the stake level at the window's anchor period. This module holds the value
types (constraints, requests, queue state), the slack arithmetic that turns
those constraints into a per-period capacity, the rules of motion, and the
post-hoc trace auditor used by tests and the CLI.

Conventions:
  * Periods are 1-based. ``QueueState.period`` is the period about to be
    decided; ``processed_totals[k]`` is the stake processed in period k+1.
  * ``stake_history[k]`` is the total stake remaining after period k's
    processing; index 0 is the genesis stake. Pre-genesis periods contribute
    the genesis stake and zero processed totals.
  * Capacities are integers: ``floor(delta * stake)`` in fraction mode, the
    count itself in absolute mode. Deltas are exact rationals so capacity
    never suffers binary-float rounding.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    ConfigError,
    InfeasibleProcessing,
    LengthMismatch,
    NegativeProcessed,
    UnknownRequest,
)

__all__ = [
    "ConstraintMode",
    "Constraint",
    "ConstraintSet",
    "ExitRequest",
    "QueueState",
    "exact_fraction",
    "capacity",
    "slack",
    "min_slack",
    "step",
    "check_trace_feasible",
]

RationalLike = Union[int, float, str, Fraction]


def exact_fraction(value: RationalLike) -> Fraction:
    """Convert a user-supplied number to an exact Fraction.

    Floats are interpreted at their shortest decimal repr, so 0.1 becomes
    1/10 rather than the binary approximation. This keeps capacity floors
    and half-down rounding exact where it is observable. Any integer,
    Python or numpy, is read exactly, as ``_integer`` reads one.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"non-finite rational value: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    try:
        return Fraction(operator.index(value))
    except TypeError:
        raise ConfigError(f"cannot interpret {value!r} as a rational") from None


def _integer(name: str, value, least: int) -> int:
    """``value`` as an int: a Python or numpy integer of at least ``least``.
    Anything else, a float such as 2.7 or nan included, is a ConfigError."""
    try:
        if (whole := operator.index(value)) >= least:
            return whole
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def _least(name: str, values: Sequence) -> int:
    """The least of ``values`` (0 for none), each read as ``_integer`` reads
    one; a float such as 0.5 is a ConfigError."""
    try:
        return min(map(operator.index, values), default=0)
    except TypeError:
        raise ConfigError(f"{name} entries must be integers, got {values!r}") from None


class ConstraintMode(enum.Enum):
    """How a constraint's delta is read."""

    FRACTION_OF_STAKE = "fraction"
    ABSOLUTE_COUNT = "absolute"


@dataclass(frozen=True)
class Constraint:
    """A sliding-window limit (delta, window).

    In fraction mode, at most floor(delta * stake-at-anchor) stake units may
    be processed in any ``window`` consecutive periods. In absolute mode,
    delta is itself the integer unit budget per window.
    """

    delta: Fraction
    window: int

    def __init__(self, delta: RationalLike, window: int) -> None:
        object.__setattr__(self, "delta", exact_fraction(delta))
        object.__setattr__(self, "window", _integer("window", window, 1))
        if self.delta < 0:
            raise ConfigError(f"delta must be nonnegative, got {self.delta}")


@dataclass(frozen=True)
class ConstraintSet:
    """A nonempty collection of constraints sharing one mode."""

    constraints: tuple[Constraint, ...]
    mode: ConstraintMode

    def __init__(
        self,
        constraints: Iterable[Constraint],
        mode: ConstraintMode = ConstraintMode.ABSOLUTE_COUNT,
    ) -> None:
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "mode", mode)
        if not self.constraints:
            raise ConfigError("constraint set must be nonempty")
        for c in self.constraints:
            if self.mode is ConstraintMode.FRACTION_OF_STAKE:
                if not 0 <= c.delta <= 1:
                    raise ConfigError(
                        f"fraction-mode delta must lie in [0,1], got {c.delta}"
                    )
            else:
                if c.delta.denominator != 1:
                    raise ConfigError(
                        f"absolute-mode delta must be an integer, got {c.delta}"
                    )

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def __getitem__(self, i: int) -> Constraint:
        return self.constraints[i]


@dataclass(frozen=True)
class ExitRequest:
    """One validator's pending exit.

    ``cost`` is the disutility per period of waiting per stake unit;
    ``bid`` is an optional reported price used only by pricing code.
    ``stake`` and ``requested_at`` are integers of at least 1.
    """

    validator: str
    requested_at: int
    cost: float
    stake: int = 1
    bid: float = 0.0

    def __post_init__(self) -> None:
        _integer("stake", self.stake, 1)
        _integer("requested_at", self.requested_at, 1)
        if not self.cost >= 0:
            raise ConfigError(f"cost must be nonnegative, got {self.cost}")
        if not self.bid >= 0:
            raise ConfigError(f"bid must be nonnegative, got {self.bid}")


@dataclass(frozen=True)
class QueueState:
    """Immutable snapshot of the queue at the start of a period.

    ``waiting`` already contains the current period's arrivals and is kept
    in arrival order (``requested_at`` never goes down; the constructor
    checks it). ``processed_totals`` covers periods 1..period-1.
    ``stake_history`` is None when no fraction constraint needs it.

    The constructor stores the sequences as tuples and validates every
    field, reading the period and every count by the one integer rule
    (``_integer``); ``step`` builds each successor through it too.
    """

    constraints: ConstraintSet
    period: int
    waiting: tuple[ExitRequest, ...]
    processed_totals: tuple[int, ...] = ()
    stake_history: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        init = object.__setattr__
        init(self, "waiting", tuple(self.waiting))
        init(self, "processed_totals", tuple(self.processed_totals))
        if self.stake_history is not None:
            init(self, "stake_history", tuple(self.stake_history))
        init(self, "period", _integer("period", self.period, 1))
        totals, stakes, period = self.processed_totals, self.stake_history, self.period
        if len(totals) != period - 1:
            raise ConfigError(
                f"processed_totals covers {len(totals)} periods, expected {period - 1}"
            )
        if _least("processed_totals", totals) < 0:
            raise NegativeProcessed(f"negative processed total in {totals}")
        if stakes is not None:
            if len(stakes) != period:
                raise ConfigError(f"stake_history has {len(stakes)} entries, expected {period}")
            if _least("stake_history", stakes) < 0:
                raise ConfigError("stake_history entries must be nonnegative")
        elif self.constraints.mode is ConstraintMode.FRACTION_OF_STAKE:
            raise ConfigError("fraction-mode constraints require a stake history")
        seen: set[str] = set()
        last = 1
        for r in self.waiting:
            if r.validator in seen:
                raise ConfigError(f"duplicate validator id in waiting list: {r.validator}")
            seen.add(r.validator)
            if r.requested_at > period:
                raise ConfigError(
                    f"request {r.validator} has requested_at={r.requested_at} "
                    f"after current period {period}"
                )
            if r.requested_at < last:
                raise ConfigError(
                    f"waiting list is not in arrival order: {r.validator} "
                    f"(requested_at={r.requested_at}) follows a request from period {last}"
                )
            last = r.requested_at

    @classmethod
    def initial(
        cls,
        constraints: ConstraintSet,
        total_stake: int | None = None,
        arrivals: Iterable[ExitRequest] = (),
    ) -> "QueueState":
        """Fresh period-1 state holding the first arrival batch."""
        history = None if total_stake is None else (_integer("total_stake", total_stake, 0),)
        return cls(constraints=constraints, period=1, waiting=arrivals, stake_history=history)


# =============================================================
# Slack arithmetic
# =============================================================


def capacity(delta: Fraction, mode: ConstraintMode, stake_basis: int | None) -> int:
    """Window capacity in stake units for a given anchor-stake basis."""
    if mode is ConstraintMode.ABSOLUTE_COUNT:
        return int(delta)
    if stake_basis is None:
        raise ConfigError("fraction-mode capacity needs a stake basis")
    return stake_basis * delta.numerator // delta.denominator


def slack(i: int, state: QueueState) -> int:
    """Remaining capacity of constraint i for the current period.

    Returns capacity(delta_i, S(t - T_i)) minus the stake processed over
    periods t-T_i+1 .. t-1. Unclamped; min_slack applies the zero floor.
    """
    c = state.constraints[i]
    anchor = max(0, state.period - c.window)  # pre-genesis anchors read genesis
    stakes = state.stake_history
    cap = capacity(c.delta, state.constraints.mode, None if stakes is None else stakes[anchor])
    return cap - sum(state.processed_totals[anchor:])


def min_slack(state: QueueState) -> int:
    """Binding capacity for the current period: min over constraints, >= 0."""
    return max(0, min(slack(i, state) for i in range(len(state.constraints))))


# =============================================================
# Rules of motion
# =============================================================


def step(
    state: QueueState,
    arrivals: Iterable[ExitRequest],
    processed: Iterable[ExitRequest],
) -> QueueState:
    """Advance one period: remove processed requests, admit next arrivals.

    ``processed`` must be a subset of the current waiting list and its total
    stake may not exceed min_slack. ``arrivals`` join the next period's
    waiting list and must carry requested_at == period + 1.
    """
    processed_ids: set[str] = set()
    stake_sum = 0
    waiting_ids = {r.validator for r in state.waiting}
    for r in processed:
        if r.validator not in waiting_ids:
            raise UnknownRequest(f"processed request {r.validator} not in waiting list")
        if r.validator in processed_ids:
            continue
        processed_ids.add(r.validator)
        stake_sum += r.stake

    allowed = min_slack(state)
    if stake_sum > allowed:
        raise InfeasibleProcessing(
            f"processing {stake_sum} stake units exceeds min_slack {allowed} "
            f"at period {state.period}"
        )

    t = state.period
    arrivals = tuple(arrivals)
    for r in arrivals:
        if r.requested_at != t + 1:
            raise ConfigError(
                f"arrival {r.validator} has requested_at={r.requested_at}, expected {t + 1}"
            )
    stakes = state.stake_history
    return QueueState(
        constraints=state.constraints,
        period=t + 1,
        waiting=tuple(r for r in state.waiting if r.validator not in processed_ids) + arrivals,
        processed_totals=state.processed_totals + (stake_sum,),
        stake_history=None if stakes is None else stakes + (stakes[-1] - stake_sum,),
    )


# =============================================================
# Post-hoc trace auditor
# =============================================================


def check_trace_feasible(
    processed_totals: Sequence[int],
    stake_history: Sequence[int] | None,
    constraints: ConstraintSet,
) -> bool:
    """Audit a completed trace against every sliding-window constraint.

    Checks, for every constraint (delta, T) and every anchor period t0 >= 0
    with recorded history, that the stake processed in periods t0+1..t0+T
    stays within capacity(delta, S(t0)). Absolute mode ignores the stake
    history. Anchors before genesis are dominated by the t0 = 0 window and
    are not checked separately.
    """
    totals = list(processed_totals)
    if any(p < 0 for p in totals):
        raise NegativeProcessed(f"negative processed total in {totals}")
    n = len(totals)

    fraction = constraints.mode is ConstraintMode.FRACTION_OF_STAKE
    stakes: list[int] | None = None
    if fraction:
        if stake_history is None:
            raise LengthMismatch("fraction-mode audit requires a stake history")
        stakes = list(stake_history)
        if len(stakes) != n + 1:
            raise LengthMismatch(
                f"stake_history has {len(stakes)} entries for {n} processed periods; "
                f"expected {n + 1}"
            )

    prefix = [0] * (n + 1)
    for k, p in enumerate(totals):
        prefix[k + 1] = prefix[k] + p

    for c in constraints:
        for t0 in range(n):
            hi = min(t0 + c.window, n)
            window_sum = prefix[hi] - prefix[t0]
            basis = stakes[t0] if stakes is not None else None
            if window_sum > capacity(c.delta, constraints.mode, basis):
                return False
    return True
