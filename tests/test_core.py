"""Queue state, slack arithmetic, transition rules, and the trace auditor.

The boundary examples are hand-computed; the window auditor is additionally
checked against an independent brute-force re-check (direct slicing, no
prefix sums) across exhaustive small traces and randomized walks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitqueue.core import (
    Constraint,
    ConstraintMode,
    ConstraintSet,
    ExitRequest,
    QueueState,
    capacity,
    check_trace_feasible,
    exact_fraction,
    min_slack,
    slack,
    step,
)
from exitqueue.errors import (
    ConfigError,
    InfeasibleProcessing,
    LengthMismatch,
    NegativeProcessed,
    UnknownRequest,
)


def _window_ok(totals, stakes, constraints) -> bool:
    """Brute-force window audit used as an oracle for check_trace_feasible.

    Slices every window directly instead of using prefix sums, so the two
    implementations share no arithmetic.
    """
    n = len(totals)
    for c in constraints:
        for t0 in range(n):
            taken = sum(totals[t0 : t0 + c.window])
            if constraints.mode is ConstraintMode.ABSOLUTE_COUNT:
                cap = int(c.delta)
            else:
                cap = math.floor(c.delta * stakes[t0])
            if taken > cap:
                return False
    return True


def _unit(vid: str, t: int, cost: float = 1.0, stake: int = 1) -> ExitRequest:
    return ExitRequest(validator=vid, requested_at=t, cost=cost, stake=stake)


def _abs(pairs) -> ConstraintSet:
    return ConstraintSet([Constraint(d, w) for d, w in pairs])


# =============================================================
# Fraction handling and capacity
# =============================================================


def test_exact_fraction_reads_decimal_literals() -> None:
    assert exact_fraction(0.1) == Fraction(1, 10)
    assert exact_fraction("0.3") == Fraction(3, 10)
    assert exact_fraction(Fraction(2, 7)) == Fraction(2, 7)
    assert exact_fraction(3) == Fraction(3)


def test_exact_fraction_rejects_non_finite() -> None:
    with pytest.raises(ConfigError):
        exact_fraction(float("nan"))
    with pytest.raises(ConfigError):
        exact_fraction(float("inf"))


def test_exact_fraction_rejects_a_non_number() -> None:
    with pytest.raises(ConfigError, match="cannot interpret None as a rational"):
        exact_fraction(None)


def test_capacity_fraction_floors_exactly() -> None:
    # Binary 0.3 * 10 = 2.999...96 would floor to 2; the decimal reading
    # must give exactly 3.
    assert capacity(exact_fraction(0.3), ConstraintMode.FRACTION_OF_STAKE, 10) == 3
    assert capacity(exact_fraction(0.1), ConstraintMode.FRACTION_OF_STAKE, 45) == 4
    assert capacity(exact_fraction(0.1), ConstraintMode.FRACTION_OF_STAKE, 450) == 45


@given(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    st.integers(0, 10**9),
)
def test_capacity_fraction_is_the_exact_floor(delta, stake) -> None:
    assert capacity(delta, ConstraintMode.FRACTION_OF_STAKE, stake) == math.floor(delta * stake)


def test_capacity_absolute_ignores_basis() -> None:
    assert capacity(Fraction(2), ConstraintMode.ABSOLUTE_COUNT, None) == 2
    with pytest.raises(ConfigError):
        capacity(Fraction(1, 2), ConstraintMode.FRACTION_OF_STAKE, None)


# =============================================================
# Slack examples
# =============================================================


def test_slack_after_full_window_is_zero() -> None:
    # Constraint (2, 3) at period 3 with the last two totals [2, 0]:
    # the window covers periods 1..2, so slack = 2 - 2 = 0.
    cs = _abs([(2, 3)])
    state = QueueState(constraints=cs, period=3, waiting=(), processed_totals=(2, 0))
    assert slack(0, state) == 0


def test_slack_with_empty_window_is_full_capacity() -> None:
    cs = _abs([(2, 3)])
    state = QueueState(constraints=cs, period=3, waiting=(), processed_totals=(0, 0))
    assert slack(0, state) == 2


def test_slack_fraction_uses_anchor_stake() -> None:
    # (0.1, 4) at period 5: anchor is period 1, stake 45 there, so the
    # window capacity is floor(4.5) = 4 and nothing was processed yet.
    cs = ConstraintSet([Constraint("0.1", 4)], ConstraintMode.FRACTION_OF_STAKE)
    state = QueueState(
        constraints=cs,
        period=5,
        waiting=(),
        processed_totals=(0, 0, 0, 0),
        stake_history=(45, 45, 45, 45, 45),
    )
    assert slack(0, state) == 4


def test_slack_pre_genesis_anchor_uses_genesis_stake() -> None:
    cs = ConstraintSet([Constraint("0.5", 10)], ConstraintMode.FRACTION_OF_STAKE)
    state = QueueState(
        constraints=cs,
        period=2,
        waiting=(),
        processed_totals=(3,),
        stake_history=(20, 17),
    )
    # Anchor period is 2 - 10 < 0, so the basis is the genesis stake 20.
    assert slack(0, state) == 10 - 3


def test_slack_can_go_negative_min_slack_clamps() -> None:
    # A hand-built over-full trace: slack is reported unclamped, the
    # binding min_slack never drops below zero.
    cs = _abs([(1, 2)])
    state = QueueState(constraints=cs, period=2, waiting=(), processed_totals=(2,))
    assert slack(0, state) == -1
    assert min_slack(state) == 0


def test_min_slack_takes_binding_constraint() -> None:
    cs = _abs([(2, 2), (1, 3), (9, 4)])
    state = QueueState.initial(cs)
    assert [slack(i, state) for i in range(3)] == [2, 1, 9]
    assert min_slack(state) == 1


def test_min_slack_zero_capacity() -> None:
    state = QueueState.initial(_abs([(0, 1)]))
    assert min_slack(state) == 0


# =============================================================
# Transition rules
# =============================================================


def test_step_identity_without_activity() -> None:
    cs = _abs([(2, 3)])
    state = QueueState.initial(cs, arrivals=[_unit("a", 1)])
    nxt = step(state, (), ())
    assert nxt.period == 2
    assert nxt.waiting == state.waiting
    assert nxt.processed_totals == (0,)


def test_step_removes_processed_and_admits_arrivals() -> None:
    cs = _abs([(2, 3)])
    a, b = _unit("a", 1), _unit("b", 1)
    c = _unit("c", 2)
    state = QueueState.initial(cs, arrivals=[a, b])
    nxt = step(state, [c], [a])
    assert [r.validator for r in nxt.waiting] == ["b", "c"]
    assert nxt.processed_totals == (1,)


def test_step_deduplicates_processed_ids() -> None:
    cs = _abs([(2, 3)])
    a = _unit("a", 1)
    state = QueueState.initial(cs, arrivals=[a])
    nxt = step(state, (), [a, a])
    assert nxt.processed_totals == (1,)
    assert nxt.waiting == ()


def test_step_rejects_unknown_request() -> None:
    cs = _abs([(2, 3)])
    state = QueueState.initial(cs, arrivals=[_unit("a", 1)])
    with pytest.raises(UnknownRequest):
        step(state, (), [_unit("ghost", 1)])


def test_step_rejects_overfull_processing() -> None:
    cs = _abs([(2, 3)])
    reqs = [_unit(f"v{i}", 1) for i in range(3)]
    state = QueueState.initial(cs, arrivals=reqs)
    with pytest.raises(InfeasibleProcessing):
        step(state, (), reqs)


def test_step_rejects_misdated_arrival() -> None:
    cs = _abs([(2, 3)])
    state = QueueState.initial(cs)
    # A future date breaks the successor's own checks; a back-dated arrival
    # (requested_at == period) passes them, so only step catches it.
    for requested_at in (5, state.period):
        with pytest.raises(ConfigError):
            step(state, [_unit("late", requested_at)], ())


def test_step_counts_stake_not_heads() -> None:
    cs = _abs([(3, 1)])
    heavy = _unit("heavy", 1, stake=3)
    extra = _unit("extra", 1)
    state = QueueState.initial(cs, arrivals=[heavy, extra])
    nxt = step(state, (), [heavy])
    assert nxt.processed_totals == (3,)
    with pytest.raises(InfeasibleProcessing):
        step(state, (), [heavy, extra])


def test_step_tracks_stake_history() -> None:
    cs = ConstraintSet([Constraint("0.5", 2)], ConstraintMode.FRACTION_OF_STAKE)
    a, b = _unit("a", 1), _unit("b", 1)
    state = QueueState.initial(cs, total_stake=10, arrivals=[a, b])
    nxt = step(state, (), [a, b])
    assert nxt.stake_history == (10, 8)


def test_step_past_absolute_initial_stake_raises() -> None:
    # Absolute capacity ignores the stake, so only the history check can
    # stop a step that would drive the tracked stake below zero.
    cs = _abs([(5, 1)])
    reqs = [_unit(f"v{i}", 1) for i in range(3)]
    state = QueueState.initial(cs, total_stake=2, arrivals=reqs)
    with pytest.raises(ConfigError):
        step(state, (), reqs)
    assert step(state, (), reqs[:2]).stake_history == (2, 0)


def _check_against_constructor(state, waiting, totals, stakes) -> None:
    """``state`` equals the state the public constructor builds from the
    same history, and its slacks equal the direct window sums."""
    ref = QueueState(
        constraints=state.constraints,
        period=len(totals) + 1,
        waiting=waiting,
        processed_totals=totals,
        stake_history=stakes,
    )
    assert state == ref
    assert hash(state) == hash(ref)
    assert repr(state) == repr(ref)
    assert (state.processed_totals, state.stake_history) == (totals, stakes)
    t = state.period
    for i, c in enumerate(state.constraints):
        anchor = max(0, t - c.window)
        if state.constraints.mode is ConstraintMode.ABSOLUTE_COUNT:
            cap = int(c.delta)
        else:
            cap = math.floor(c.delta * stakes[anchor])
        assert slack(i, state) == cap - sum(totals[anchor:])


@given(st.sampled_from(list(ConstraintMode)), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_step_matches_public_constructor(mode, unit_stakes, data) -> None:
    """Random walks that step some states more than once.

    A state stepped more than once must keep its own values, so every state
    built, early or late, on any branch, is re-checked at the end as well as
    when it is built.
    """
    draw = data.draw
    n = draw(st.integers(1, 3), label="constraints")
    if mode is ConstraintMode.FRACTION_OF_STAKE:
        cons = [
            Constraint(Fraction(draw(st.integers(0, 6)), 6), draw(st.integers(1, 4)))
            for _ in range(n)
        ]
        genesis = draw(st.integers(0, 30), label="genesis")
    else:
        cons = [Constraint(draw(st.integers(0, 5)), draw(st.integers(1, 4))) for _ in range(n)]
        genesis = draw(st.none() | st.integers(0, 12), label="genesis")
    cs = ConstraintSet(cons, mode)

    def batch(t: int) -> list[ExitRequest]:
        k = draw(st.integers(0, 3), label=f"arrivals@{t}")
        stakes = [1 if unit_stakes else draw(st.integers(1, 3)) for _ in range(k)]
        return [_unit(f"p{t}.{i}", t, cost=float(i), stake=s) for i, s in enumerate(stakes)]

    first = tuple(batch(1))
    history = None if genesis is None else (genesis,)
    built = [(QueueState.initial(cs, total_stake=genesis, arrivals=first), first, (), history)]
    for _ in range(draw(st.integers(1, 12), label="steps")):
        last = len(built) - 1
        pick = draw(st.just(last) | st.integers(0, last), label="state to step")
        state, _, totals, stakes = built[pick]
        t = state.period
        fits, used = [], 0
        for r in state.waiting:
            if used + r.stake > min_slack(state):
                break
            fits.append(r)
            used += r.stake
        chosen = fits[: draw(st.integers(0, len(fits)), label=f"take@{t}")]
        taken = sum(r.stake for r in chosen)
        arrivals = tuple(batch(t + 1))
        if stakes is not None and taken > stakes[-1]:
            with pytest.raises(ConfigError):
                step(state, arrivals, chosen)
            continue
        nxt = step(state, arrivals, chosen)
        waiting = tuple(r for r in state.waiting if r not in chosen) + arrivals
        history = None if stakes is None else stakes + (stakes[-1] - taken,)
        built.append((nxt, waiting, totals + (taken,), history))
        _check_against_constructor(*built[-1])
    for entry in built:
        _check_against_constructor(*entry)


# =============================================================
# State validation
# =============================================================


def test_request_validation() -> None:
    with pytest.raises(ConfigError):
        ExitRequest(validator="x", requested_at=0, cost=1.0)
    with pytest.raises(ConfigError):
        ExitRequest(validator="x", requested_at=1, cost=-1.0)
    # nan < 0 is False: a nan cost or bid must still be refused.
    with pytest.raises(ConfigError, match="cost must be nonnegative, got nan"):
        ExitRequest(validator="x", requested_at=1, cost=math.nan)
    with pytest.raises(ConfigError):
        ExitRequest(validator="x", requested_at=1, cost=1.0, stake=0)
    with pytest.raises(ConfigError):
        ExitRequest(validator="x", requested_at=1, cost=1.0, bid=-0.5)
    with pytest.raises(ConfigError, match="bid must be nonnegative, got nan"):
        ExitRequest(validator="x", requested_at=1, cost=1.0, bid=math.nan)
    # stake and requested_at are integers: a fraction or a nan is refused,
    # and a nan stake would otherwise fit under any capacity.
    for field in ("stake", "requested_at"):
        for bad in (1.5, math.nan, 2.0):
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                ExitRequest(**{"validator": "x", "requested_at": 1, "cost": 1.0, field: bad})
    numpy_ints = ExitRequest("x", np.int64(3), 1.0, stake=np.int32(2))
    assert (numpy_ints.requested_at, numpy_ints.stake) == (3, 2)


def test_constraint_validation() -> None:
    with pytest.raises(ConfigError):
        Constraint(-1, 3)
    with pytest.raises(ConfigError):
        Constraint(2, 0)
    # A window is a whole number of periods, never rounded toward one.
    for bad in (2.7, 2.0, math.nan, "2"):
        with pytest.raises(ConfigError, match="window must be an integer"):
            Constraint(2, bad)
    assert Constraint(2, np.int64(3)) == Constraint(2, 3)
    assert type(Constraint(2, np.int64(3)).window) is int
    with pytest.raises(ConfigError):
        ConstraintSet([])
    with pytest.raises(ConfigError):
        ConstraintSet([Constraint("1.5", 2)], ConstraintMode.FRACTION_OF_STAKE)
    with pytest.raises(ConfigError):
        ConstraintSet([Constraint("0.5", 2)], ConstraintMode.ABSOLUTE_COUNT)


def test_state_is_immutable() -> None:
    state = QueueState.initial(_abs([(2, 3)]))
    with pytest.raises(AttributeError):
        state.period = 2
    assert step(state, (), ()).period == 2


def test_state_validation() -> None:
    cs = _abs([(2, 3)])
    with pytest.raises(ConfigError):
        QueueState(constraints=cs, period=0, waiting=())
    with pytest.raises(ConfigError):
        QueueState(constraints=cs, period=2, waiting=(), processed_totals=())
    with pytest.raises(NegativeProcessed):
        QueueState(constraints=cs, period=2, waiting=(), processed_totals=(-1,))
    with pytest.raises(ConfigError):
        QueueState(
            constraints=cs, period=1, waiting=(_unit("a", 1), _unit("a", 1))
        )
    with pytest.raises(ConfigError):
        QueueState(constraints=cs, period=1, waiting=(_unit("early", 2),))
    with pytest.raises(ConfigError):
        QueueState(
            constraints=cs, period=2, waiting=(), processed_totals=(0,),
            stake_history=(5,),
        )
    fraction = ConstraintSet([Constraint("0.5", 2)], ConstraintMode.FRACTION_OF_STAKE)
    with pytest.raises(ConfigError, match="fraction-mode constraints require a stake history"):
        QueueState(constraints=fraction, period=1, waiting=())


def test_state_requires_arrival_order() -> None:
    cs = _abs([(2, 3)])
    ordered = (_unit("a", 1), _unit("b", 2), _unit("c", 2), _unit("d", 3))
    assert QueueState(cs, 3, ordered, processed_totals=(0, 0)).waiting == ordered
    with pytest.raises(ConfigError, match="arrival order"):
        QueueState(cs, 3, (_unit("b", 2), _unit("a", 1)), processed_totals=(0, 0))


# =============================================================
# Trace auditor vs the brute-force oracle
# =============================================================


def test_trace_examples() -> None:
    cs = _abs([(2, 3)])
    assert check_trace_feasible((2, 0, 0, 2), None, cs) is True
    assert check_trace_feasible((2, 1, 0, 0), None, cs) is False
    assert check_trace_feasible((), None, cs) is True


def test_trace_fraction_mode_checks_anchor_stake() -> None:
    cs = ConstraintSet([Constraint("0.5", 2)], ConstraintMode.FRACTION_OF_STAKE)
    # Stake decays, so a window that fit at genesis stops fitting later.
    assert check_trace_feasible((5, 0, 5), (10, 5, 5, 0), cs) is False
    assert check_trace_feasible((5, 0, 2), (10, 5, 5, 3), cs) is True


def test_trace_auditor_raises_on_bad_input() -> None:
    cs = _abs([(2, 3)])
    with pytest.raises(NegativeProcessed):
        check_trace_feasible((1, -1), None, cs)
    fcs = ConstraintSet([Constraint("0.5", 2)], ConstraintMode.FRACTION_OF_STAKE)
    with pytest.raises(LengthMismatch):
        check_trace_feasible((1, 1), None, fcs)
    with pytest.raises(LengthMismatch):
        check_trace_feasible((1, 1), (10, 9), fcs)


def test_trace_auditor_matches_oracle_exhaustively() -> None:
    # Every trace of length <= 4 with per-period totals 0..3, under three
    # different absolute constraint sets.
    sets = [_abs([(2, 3)]), _abs([(3, 2), (1, 1)]), _abs([(4, 4), (2, 2)])]
    for cs in sets:
        for n in range(5):
            for totals in product(range(4), repeat=n):
                assert check_trace_feasible(totals, None, cs) == _window_ok(
                    totals, None, cs
                ), (cs, totals)


@st.composite
def _constraint_sets(draw):
    n = draw(st.integers(1, 3))
    cons = [
        Constraint(draw(st.integers(0, 5)), draw(st.integers(1, 4))) for _ in range(n)
    ]
    return ConstraintSet(cons)


@given(_constraint_sets(), st.lists(st.integers(0, 6), max_size=12))
def test_trace_auditor_matches_oracle_randomized(cs, totals) -> None:
    assert check_trace_feasible(tuple(totals), None, cs) == _window_ok(
        totals, None, cs
    )


@given(
    _constraint_sets(),
    st.lists(st.integers(0, 10), min_size=1, max_size=10),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_greedy_walk_is_always_feasible(cs, arrivals_per_period, data) -> None:
    """Processing at most min_slack each period always passes the audit.

    Each period admits a batch of unit requests and processes a drawn count
    up to the binding slack; the resulting trace must satisfy both the
    package auditor and the independent oracle, and pushing one extra unit
    beyond a binding slack must raise.
    """
    first = [_unit(f"p1.{i}", 1) for i in range(arrivals_per_period[0])]
    state = QueueState.initial(cs, arrivals=first)
    for t, k in enumerate(arrivals_per_period[1:] + [0], start=1):
        allowed = min(min_slack(state), len(state.waiting))
        take = data.draw(st.integers(0, allowed), label=f"take@{t}")
        chosen = state.waiting[:take]
        if take == allowed and len(state.waiting) > allowed:
            with pytest.raises(InfeasibleProcessing):
                step(state, (), state.waiting[: allowed + 1])
        arrivals = [_unit(f"p{t + 1}.{i}", t + 1) for i in range(k)]
        state = step(state, arrivals, chosen)
    assert check_trace_feasible(state.processed_totals, None, cs) is True
    assert _window_ok(state.processed_totals, None, cs) is True


@given(
    st.integers(1, 4),
    st.lists(st.integers(0, 3), min_size=1, max_size=8),
)
@settings(max_examples=60, deadline=None)
def test_fraction_mode_conserves_stake(window, arrivals_per_period) -> None:
    cs = ConstraintSet([Constraint("0.5", window)], ConstraintMode.FRACTION_OF_STAKE)
    genesis = 50
    first = [_unit(f"p1.{i}", 1) for i in range(arrivals_per_period[0])]
    state = QueueState.initial(cs, total_stake=genesis, arrivals=first)
    for t, k in enumerate(arrivals_per_period[1:] + [0], start=1):
        take = min(min_slack(state), len(state.waiting))
        arrivals = [_unit(f"p{t + 1}.{i}", t + 1) for i in range(k)]
        state = step(state, arrivals, state.waiting[:take])
    # History equals genesis minus the running processed totals.
    for k in range(len(state.processed_totals) + 1):
        assert state.stake_history[k] == genesis - sum(state.processed_totals[:k])
    assert check_trace_feasible(
        state.processed_totals, state.stake_history, cs
    ) is True


@given(_constraint_sets(), st.integers(0, 5))
def test_step_is_deterministic(cs, n_arrivals) -> None:
    reqs = [_unit(f"v{i}", 1) for i in range(n_arrivals)]
    s1 = QueueState.initial(cs, arrivals=reqs)
    s2 = QueueState.initial(cs, arrivals=reqs)
    take = min(min_slack(s1), len(s1.waiting))
    assert step(s1, (), s1.waiting[:take]) == step(s2, (), s2.waiting[:take])
