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
  * History is shared, not copied: the states along one trajectory read
    prefixes of the same append-only lists of processed totals and stakes,
    so ``step`` costs O(1) in the periods already simulated. Stepping a
    state that already has a successor copies its prefix first (fork on
    write), so every state keeps its own values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import FrozenInstanceError, dataclass
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
    and half-down rounding exact where it is observable.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigError(f"non-finite rational value: {value!r}")
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise ConfigError(f"cannot interpret {value!r} as a rational")


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
        object.__setattr__(self, "window", int(window))
        if self.delta < 0:
            raise ConfigError(f"delta must be nonnegative, got {self.delta}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")


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
    """

    validator: str
    requested_at: int
    cost: float
    stake: int = 1
    bid: float = 0.0

    def __post_init__(self) -> None:
        if self.stake < 1:
            raise ConfigError(f"stake must be >= 1, got {self.stake}")
        if self.requested_at < 1:
            raise ConfigError(f"requested_at must be >= 1, got {self.requested_at}")
        if self.cost < 0:
            raise ConfigError(f"cost must be nonnegative, got {self.cost}")
        if self.bid < 0:
            raise ConfigError(f"bid must be nonnegative, got {self.bid}")


def _validate_waiting(waiting: Sequence[ExitRequest], period: int) -> None:
    seen: set[str] = set()
    last = 1
    for r in waiting:
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


class QueueState:
    """Immutable snapshot of the queue at the start of a period.

    ``waiting`` already contains the current period's arrivals and is kept
    in arrival order (``requested_at`` never goes down; the constructor
    checks it). ``processed_totals`` covers periods 1..period-1.
    ``stake_history`` is None when no fraction constraint needs it.

    The constructor validates everything; ``step`` builds successors through
    ``_successor``, which checks only the new entries. Equality, hashing and
    repr are by value, as for a frozen dataclass of the five fields. States
    of one trajectory share their history lists (module docstring), so do
    not step them from several threads at once.
    """

    __slots__ = ("constraints", "period", "waiting", "_totals", "_stakes", "_window_sums")

    def __init__(
        self,
        constraints: ConstraintSet,
        period: int,
        waiting: Sequence[ExitRequest],
        processed_totals: Sequence[int] = (),
        stake_history: Sequence[int] | None = None,
    ) -> None:
        totals = list(processed_totals)
        stakes = None if stake_history is None else list(stake_history)
        if period < 1:
            raise ConfigError(f"period must be >= 1, got {period}")
        if len(totals) != period - 1:
            raise ConfigError(
                f"processed_totals covers {len(totals)} periods, expected {period - 1}"
            )
        if any(p < 0 for p in totals):
            raise NegativeProcessed(f"negative processed total in {tuple(totals)}")
        if stakes is not None:
            if len(stakes) != period:
                raise ConfigError(f"stake_history has {len(stakes)} entries, expected {period}")
            if any(s < 0 for s in stakes):
                raise ConfigError("stake_history entries must be nonnegative")
        elif constraints.mode is ConstraintMode.FRACTION_OF_STAKE:
            raise ConfigError("fraction-mode constraints require a stake history")
        waiting = tuple(waiting)
        _validate_waiting(waiting, period)
        sums = tuple(sum(totals[max(0, period - c.window):]) for c in constraints)
        self._fill(constraints, period, waiting, totals, stakes, sums)

    def _fill(self, constraints, period, waiting, totals, stakes, sums) -> None:
        # ``totals`` and ``stakes`` may run past this state's prefix (period-1
        # and period entries) once a successor has appended to them.
        init = object.__setattr__
        init(self, "constraints", constraints)
        init(self, "period", period)
        init(self, "waiting", waiting)
        init(self, "_totals", totals)
        init(self, "_stakes", stakes)
        init(self, "_window_sums", sums)  # stake processed in each constraint's open window

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def processed_totals(self) -> tuple[int, ...]:
        return tuple(self._totals[: self.period - 1])

    @property
    def stake_history(self) -> tuple[int, ...] | None:
        if self._stakes is None:
            return None
        return tuple(self._stakes[: self.period])

    def recent_totals(self, n: int) -> tuple[int, ...]:
        """The last ``n`` processed totals, oldest first (fewer near genesis)."""
        end = self.period - 1
        return tuple(self._totals[max(0, end - n):end])

    @property
    def total_stake(self) -> int | None:
        """Current stake S(0) - sum(processed_totals); None when untracked."""
        if self._stakes is None:
            return None
        return self._stakes[self.period - 1]

    def _values(self) -> tuple:
        return (
            self.constraints,
            self.period,
            self.waiting,
            self.processed_totals,
            self.stake_history,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ("constraints", "period", "waiting", "processed_totals", "stake_history")
        body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, self._values()))
        return f"QueueState({body})"

    @classmethod
    def initial(
        cls,
        constraints: ConstraintSet,
        total_stake: int | None = None,
        arrivals: Iterable[ExitRequest] = (),
    ) -> "QueueState":
        """Fresh period-1 state holding the first arrival batch."""
        history = None if total_stake is None else (int(total_stake),)
        return cls(
            constraints=constraints,
            period=1,
            waiting=tuple(arrivals),
            processed_totals=(),
            stake_history=history,
        )

    def _successor(
        self,
        remaining: tuple[ExitRequest, ...],
        arrivals: tuple[ExitRequest, ...],
        processed: int,
    ) -> "QueueState":
        """The next period's state, checking only what is new.

        ``remaining`` is this state's waiting list less what was processed
        and ``processed`` the stake that left. The new history entries are
        appended to the lists this state reads; if a successor has already
        appended to them, the prefix is copied first (fork on write).
        """
        t = self.period
        for r in arrivals:
            if r.requested_at != t + 1:
                raise ConfigError(
                    f"arrival {r.validator} has requested_at={r.requested_at}, "
                    f"expected {t + 1}"
                )
        totals, stakes = self._totals, self._stakes
        if stakes is not None:
            left = stakes[t - 1] - processed
            if left < 0:
                raise ConfigError("stake_history entries must be nonnegative")
        if arrivals:
            seen = {r.validator for r in remaining}
            for r in arrivals:
                if r.validator in seen:
                    raise ConfigError(f"duplicate validator id in waiting list: {r.validator}")
                seen.add(r.validator)

        if len(totals) >= t:
            totals = totals[: t - 1]
            stakes = None if stakes is None else stakes[:t]
        totals.append(processed)
        if stakes is not None:
            stakes.append(left)
        # Period t joins every window; period t + 1 - T leaves a window of T.
        sums = tuple(
            s + processed - (totals[t - c.window] if c.window <= t else 0)
            for s, c in zip(self._window_sums, self.constraints.constraints)
        )
        nxt = object.__new__(QueueState)
        nxt._fill(self.constraints, t + 1, remaining + arrivals, totals, stakes, sums)
        return nxt


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


def _stake_at(state: QueueState, anchor: int) -> int | None:
    # Pre-genesis anchors use the genesis stake.
    if state._stakes is None:
        return None
    return state._stakes[max(anchor, 0)]


def slack(i: int, state: QueueState) -> int:
    """Remaining capacity of constraint i for the current period.

    Returns capacity(delta_i, S(t - T_i)) minus the stake processed over
    periods t-T_i+1 .. t-1. Unclamped; min_slack applies the zero floor.
    """
    c = state.constraints[i]
    cap = capacity(c.delta, state.constraints.mode, _stake_at(state, state.period - c.window))
    return cap - state._window_sums[i]


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

    remaining = tuple(r for r in state.waiting if r.validator not in processed_ids)
    return state._successor(remaining, tuple(arrivals), stake_sum)


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
