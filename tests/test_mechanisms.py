"""Selection rules: FCFS prefix, cost-priority, scaled capacity, fixed rate.

Covers the strict-prefix stake semantics, the half-down capacity rounding,
and the equivalence of the scaled rule at alpha = 1 with plain priority
selection on randomized queues.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from exitqueue.core import Constraint, ConstraintSet, ExitRequest, QueueState
from exitqueue.errors import ConfigError, InvalidAlpha
from exitqueue.mechanisms import Mechanism, alpha_capacity, round_half_down


def _req(vid: str, t: int, cost: float, stake: int = 1) -> ExitRequest:
    return ExitRequest(validator=vid, requested_at=t, cost=cost, stake=stake)


def _state(delta: int, window: int, reqs) -> QueueState:
    cs = ConstraintSet([Constraint(delta, window)])
    return QueueState.initial(cs, arrivals=reqs)


def _ids(selected) -> list[str]:
    return [r.validator for r in selected]


# =============================================================
# Rounding and scaled capacity
# =============================================================


def test_round_half_down() -> None:
    assert round_half_down(Fraction(1, 2)) == 0
    assert round_half_down(Fraction(3, 2)) == 1
    assert round_half_down(Fraction(5, 2)) == 2
    assert round_half_down(Fraction(9, 2)) == 4
    assert round_half_down(Fraction(6, 5)) == 1
    assert round_half_down(Fraction(9, 5)) == 2
    assert round_half_down(Fraction(3)) == 3


def test_alpha_capacity_map_at_point_nine() -> None:
    assert [alpha_capacity("0.9", s) for s in range(6)] == [0, 1, 2, 3, 4, 4]


def test_alpha_capacity_half() -> None:
    assert alpha_capacity("0.5", 5) == 2


def test_alpha_capacity_one_is_identity() -> None:
    assert [alpha_capacity(1, s) for s in range(8)] == list(range(8))


def test_alpha_capacity_rejects_bad_alpha() -> None:
    for bad in (0, -1, "1.2", 2):
        with pytest.raises(InvalidAlpha):
            alpha_capacity(bad, 3)


# =============================================================
# Selection examples
# =============================================================


def test_minslack_takes_fcfs_prefix() -> None:
    reqs = [_req(v, 1, 1.0) for v in ("a", "b", "c", "d")]
    assert _ids(Mechanism.minslack().select(_state(2, 3, reqs))) == ["a", "b"]


def test_minslack_zero_slack_selects_nothing() -> None:
    reqs = [_req("a", 1, 1.0)]
    assert Mechanism.minslack().select(_state(0, 1, reqs)) == ()


def test_minslack_prefix_is_strict() -> None:
    # b's stake 3 does not fit the remaining capacity, and the strict
    # prefix stops there even though c alone would fit.
    reqs = [_req("a", 1, 1.0), _req("b", 1, 1.0, stake=3), _req("c", 1, 1.0)]
    assert _ids(Mechanism.minslack().select(_state(2, 1, reqs))) == ["a"]


def test_minslack_orders_by_arrival_period() -> None:
    cs = ConstraintSet([Constraint(1, 1)])
    state = QueueState.initial(cs, arrivals=[_req("old", 1, 1.0)])
    from exitqueue.core import step

    state = step(state, [_req("new", 2, 9.0)], ())
    assert _ids(Mechanism.minslack().select(state)) == ["old"]


def test_prio_takes_highest_cost_first() -> None:
    reqs = [_req("v1", 1, 1.0), _req("v2", 1, 10.0), _req("v3", 1, 1.0)]
    assert _ids(Mechanism.prio_minslack().select(_state(2, 3, reqs))) == ["v2", "v1"]


def test_prio_breaks_ties_fcfs() -> None:
    reqs = [_req("first", 1, 5.0), _req("second", 1, 5.0), _req("third", 1, 5.0)]
    assert _ids(Mechanism.prio_minslack().select(_state(2, 1, reqs))) == ["first", "second"]


def test_prio_sorts_by_bid_when_asked() -> None:
    reqs = [_req("a", 1, 9.0), ExitRequest("b", 1, 1.0, bid=7.0)]
    assert _ids(Mechanism.prio_minslack(sort_key="bid").select(_state(1, 1, reqs))) == ["b"]
    with pytest.raises(ConfigError):
        Mechanism.prio_minslack(sort_key="stake")


def test_alpha_scales_the_budget() -> None:
    reqs = [_req(f"v{i}", 1, float(i)) for i in range(1, 7)]
    # Slack 5, alpha 0.5 -> capacity 2: the two most expensive requests.
    assert _ids(Mechanism.alpha_minslack("0.5").select(_state(5, 1, reqs))) == ["v6", "v5"]


def test_alpha_one_equals_prio_on_example() -> None:
    reqs = [_req("v1", 1, 1.0), _req("v2", 1, 10.0), _req("v3", 1, 1.0)]
    state = _state(2, 3, reqs)
    assert Mechanism.alpha_minslack(1).select(state) == Mechanism.prio_minslack().select(state)


def test_constant_caps_at_rate() -> None:
    reqs = [_req("cheap", 1, 1.0), _req("dear", 1, 8.0)]
    state = _state(5, 1, reqs)
    assert _ids(Mechanism.constant(1).select(state)) == ["dear"]


def test_constant_caps_at_slack() -> None:
    reqs = [_req(f"v{i}", 1, 1.0) for i in range(6)]
    assert len(Mechanism.constant(10).select(_state(3, 1, reqs))) == 3


def test_constant_fcfs_ignores_cost() -> None:
    reqs = [_req("early", 1, 1.0), _req("rich", 1, 99.0)]
    state = _state(5, 1, reqs)
    assert _ids(Mechanism.constant(1, sort_key="fcfs").select(state)) == ["early"]


def test_constant_rejects_bad_rate() -> None:
    with pytest.raises(ConfigError):
        Mechanism.constant(0)


# =============================================================
# Mechanism wrapper
# =============================================================


def test_mechanism_names() -> None:
    assert Mechanism.minslack().name == "minslack"
    assert Mechanism.prio_minslack().name == "prio-minslack"
    assert Mechanism.alpha_minslack("0.9").name == "alpha-minslack(0.9)"
    assert Mechanism.constant(1).name == "constant(1)"


def test_mechanism_validation() -> None:
    with pytest.raises(InvalidAlpha):
        Mechanism.alpha_minslack("1.5")
    with pytest.raises(ConfigError):
        Mechanism.constant(0)
    with pytest.raises(ConfigError):
        Mechanism.prio_minslack(sort_key="fcfs")
    with pytest.raises(ConfigError):
        Mechanism.alpha_minslack("0.9", sort_key="fcfs")


def test_capacity_maps() -> None:
    slacks = range(6)
    assert [Mechanism.minslack().capacity(s) for s in slacks] == [0, 1, 2, 3, 4, 5]
    assert [Mechanism.prio_minslack().capacity(s) for s in slacks] == [0, 1, 2, 3, 4, 5]
    assert [Mechanism.alpha_minslack("0.9").capacity(s) for s in slacks] == [0, 1, 2, 3, 4, 4]
    assert [Mechanism.constant(2).capacity(s) for s in slacks] == [0, 1, 2, 2, 2, 2]


# =============================================================
# Properties
# =============================================================


@st.composite
def _queues(draw):
    n = draw(st.integers(0, 8))
    reqs = [
        _req(f"v{i}", 1, float(draw(st.integers(1, 20))))
        for i in range(n)
    ]
    delta = draw(st.integers(0, 6))
    window = draw(st.integers(1, 4))
    return _state(delta, window, reqs)


@given(_queues())
def test_alpha_one_is_prio(state) -> None:
    assert Mechanism.alpha_minslack(1).select(state) == Mechanism.prio_minslack().select(state)


@given(_queues())
def test_unit_stake_selection_is_work_conserving(state) -> None:
    # With unit stakes the strict prefix always fills the budget.
    from exitqueue.core import min_slack

    cap = min(min_slack(state), len(state.waiting))
    assert len(Mechanism.minslack().select(state)) == cap
    assert len(Mechanism.prio_minslack().select(state)) == cap


@given(_queues())
def test_prio_selects_a_most_expensive_subset(state) -> None:
    chosen = Mechanism.prio_minslack().select(state)
    left_out = [r for r in state.waiting if r not in chosen]
    if chosen and left_out:
        assert min(r.cost for r in chosen) >= max(r.cost for r in left_out)
