"""Decision model: state space, transitions, solver, policy files, bridge.

The solver is checked against an independent finite-horizon dynamic program
written with plain dicts and tuples (no shared indexing or numpy code), run
long enough that the truncation error is far below the comparison band.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
import time
from collections import defaultdict

import numpy as np
import pytest

from exitqueue import mdp
from exitqueue.core import Constraint, ConstraintMode, ConstraintSet, ExitRequest, QueueState
from exitqueue.errors import ConfigError, ModelMismatch
from exitqueue.mdp import (
    ArrivalModel,
    MdpState,
    OptimalMechanism,
    Policy,
    StateSpace,
    action_values,
    build_model,
    enumerate_states,
    load_policy,
    optimal_select,
    policy_text,
    queue_to_mdp_state,
    save_policy,
    value_iteration,
)

FLAGSHIP = ArrivalModel(((0, 0.5), (1, 0.4), (5, 0.1)), 0.1, 1.0, 10.0)


def _oracle_successors(model: ArrivalModel, cap, window, state, action):
    """Reward and successor distribution of one (state, action) pair.

    Built over plain tuples, independently of ``build_transitions``: highs are
    served first, then lows; each arrival count splits Binomially into highs
    and lows, counts saturate at cap, and merged successors add up.
    """
    wl, wh, h = state
    q = model.high_prob
    high_left = max(wh - action, 0)
    low_left = max(wl - max(action - wh, 0), 0)
    rew = -(model.cost_high * high_left + model.cost_low * low_left)
    nh = (action,) + h[:-1] if window > 1 else ()
    branch: dict = defaultdict(float)
    for k, pk in model.count_dist:
        for j in range(k + 1):
            pj = pk * math.comb(k, j) * q**j * (1 - q) ** (k - j)
            if pj == 0.0:
                continue
            ns = (min(low_left + k - j, cap), min(high_left + j, cap), nh)
            branch[ns] += pj
    return rew, dict(branch)


def _successors(model, i: int, a: int) -> list[tuple[int, float]]:
    """The spelled-out row of one (state, action): its successors and their
    probabilities, in the order outcomes first reach them; empty if illegal."""
    at = model.table.by_action[a]
    mine = at.src == i
    return list(zip(at.dst[mine].tolist(), at.prob[mine].tolist()))


def _oracle_values(model: ArrivalModel, cap, budget, window, gamma, horizon):
    """Finite-horizon DP over plain tuples; oracle for the solver."""
    hists = [
        h
        for h in itertools.product(range(budget + 1), repeat=window - 1)
        if sum(h) <= budget
    ]
    states = [
        (wl, wh, h)
        for wl in range(cap + 1)
        for wh in range(cap + 1)
        for h in hists
    ]
    succ = {}
    rew = {}
    for s in states:
        for a in range(budget - sum(s[2]) + 1):
            rew[s, a], succ[s, a] = _oracle_successors(model, cap, window, s, a)
    values = {s: 0.0 for s in states}
    for _ in range(horizon):
        values = {
            s: max(
                rew[s, a]
                + gamma * math.fsum(p * values[ns] for ns, p in succ[s, a].items())
                for a in range(budget - sum(s[2]) + 1)
            )
            for s in states
        }
    return values


# =============================================================
# Arrival model
# =============================================================


def test_arrival_model_validation() -> None:
    with pytest.raises(ConfigError):
        ArrivalModel((), 0.1, 1.0, 10.0)
    with pytest.raises(ConfigError):
        ArrivalModel(((0, 0.5), (0, 0.5)), 0.1, 1.0, 10.0)
    with pytest.raises(ConfigError):
        ArrivalModel(((0, 0.5), (1, 0.4)), 0.1, 1.0, 10.0)
    with pytest.raises(ConfigError):
        ArrivalModel(((0, 1.0),), 1.5, 1.0, 10.0)
    with pytest.raises(ConfigError):
        ArrivalModel(((0, 1.0),), 0.1, 10.0, 1.0)
    # A fractional count is refused, not truncated to 1, and so is a count
    # that is not finite.
    for bad in (1.5, -1, math.inf, math.nan):
        with pytest.raises(ConfigError, match=f"nonnegative integers, got {bad}"):
            ArrivalModel(((bad, 0.5), (0, 0.5)), 0.4, 1.0, 10.0)


def test_arrival_model_summaries() -> None:
    assert FLAGSHIP.cost_class(1.0) == "low"
    assert FLAGSHIP.cost_class(10.0) == "high"
    with pytest.raises(ModelMismatch):
        FLAGSHIP.cost_class(2.0)


def test_arrival_model_determinism_flag() -> None:
    assert ArrivalModel(((0, 1.0),), 0.1, 1.0, 10.0).is_deterministic()
    assert ArrivalModel(((2, 1.0),), 1.0, 1.0, 10.0).is_deterministic()
    assert not ArrivalModel(((2, 1.0),), 0.5, 1.0, 10.0).is_deterministic()
    assert not FLAGSHIP.is_deterministic()


# =============================================================
# State space
# =============================================================


def test_enumeration_counts() -> None:
    assert len(enumerate_states(10, 5)) == 15246
    assert len(enumerate_states(0, 0)) == 1
    assert len(enumerate_states(1, 1)) == 20


def test_enumeration_rejects_bad_parameters() -> None:
    with pytest.raises(ConfigError):
        enumerate_states(-1, 5)
    with pytest.raises(ConfigError):
        enumerate_states(3, 2, window=0)


def test_slack_examples() -> None:
    space = StateSpace(3, 5, window=5)
    assert space.slack[space.history_index((0, 0, 0, 0))] == 5
    assert space.slack[space.history_index((5, 0, 0, 0))] == 0
    assert space.slack[space.history_index((2, 1, 0, 0))] == 2


@pytest.mark.parametrize("budget", range(4))
@pytest.mark.parametrize("window", range(1, 6))
def test_histories_match_a_literal_enumeration(budget, window) -> None:
    # Window 1 keeps no history: one empty one.
    literal = [
        h for h in itertools.product(range(budget + 1), repeat=window - 1) if sum(h) <= budget
    ]
    space = StateSpace(2, budget, window)
    assert [tuple(d) for d in space.digits.tolist()] == literal
    assert space.slack.tolist() == [budget - sum(h) for h in literal]
    # Pushing a onto history h drops its oldest total; -1 past the budget.
    for h, d in enumerate(literal):
        for a in range(budget + 1):
            pushed = ((a,) + d)[: window - 1]
            assert space.push[h, a] == (literal.index(pushed) if pushed in literal else -1)
    states = [
        MdpState(w_low, w_high, h) for w_low in range(3) for w_high in range(3) for h in literal
    ]
    assert space.states == states
    assert space.n == len(states) == 9 * math.comb(budget + window - 1, window - 1)


def test_long_window_space_builds_encodes_and_solves() -> None:
    # 2^40 histories of 40 digits, of which 41 fit a budget of 1.
    t0 = time.perf_counter()
    space = StateSpace(2, 1, 41)
    assert time.perf_counter() - t0 < 1.0
    assert space.n == 9 * 41
    assert [space.encode(s) for s in space.states] == list(range(space.n))
    model = build_model(FLAGSHIP, cap=2, budget=1, window=41, discount=0.9)
    policy = value_iteration(model, tolerance=1e-9)
    q = action_values(model, policy.values)
    assert np.allclose(q.max(axis=1), policy.values, atol=1e-8)
    assert np.all(policy.actions <= model.space.slack[model.space.hist])


def test_encode_decode_bijection() -> None:
    space = StateSpace(3, 2, window=3)
    for i in range(space.n):
        assert space.encode(space.states[i]) == i
    with pytest.raises(ConfigError):
        space.encode(MdpState(0, 0, (2, 2)))
    with pytest.raises(ConfigError):
        space.encode(MdpState(4, 0, (0, 0)))


def test_state_space_refuses_budgets_its_actions_cannot_store() -> None:
    # Actions are stored as int8: budget 127 builds, and 128 is refused
    # before any array is built.
    assert StateSpace(1, 127, 1).n == 4
    for window in (1, 5):
        with pytest.raises(ConfigError, match="budget 128 exceeds 127"):
            StateSpace(1, 128, window)


def test_encode_arrays_matches_scalar_encode() -> None:
    space = StateSpace(3, 2, window=3)
    rng = np.random.default_rng(0)
    wl = rng.integers(0, 7, size=200)  # above cap on purpose; arrays clamp
    wh = rng.integers(0, 7, size=200)
    hist = rng.integers(0, space.n_hist, size=200)
    coded = space.encode_arrays(wl, wh, hist)
    for i in range(200):
        history = tuple(space.digits[hist[i]].tolist())
        assert space.history_index(history) == hist[i]
        expect = space.encode(MdpState(min(int(wl[i]), 3), min(int(wh[i]), 3), history))
        assert coded[i] == expect


# =============================================================
# Reward and transitions
# =============================================================


def test_reward_examples() -> None:
    model = build_model(FLAGSHIP, cap=10, budget=5, window=1)
    space, table = model.space, model.table
    assert table.after_reward[table.after[5, space.encode(MdpState(10, 0, ()))]] == -5.0
    assert table.after_reward[table.after[0, space.encode(MdpState(0, 0, ()))]] == 0.0
    # Highs are cleared first: one high and one low gone, one low stays.
    assert table.after_reward[table.after[2, space.encode(MdpState(2, 1, ()))]] == -1.0


def test_transition_rows_sum_to_one() -> None:
    model = build_model(FLAGSHIP, cap=4, budget=2, window=3)
    space, table = model.space, model.table
    plane_sums = table.planes.sum(axis=0)
    assert np.max(np.abs(plane_sums - 1.0)) < 1e-12
    for after, at in zip(table.after, table.by_action):
        # The spelled-out rows carry the planes' mass at the after-state's
        # counts, added in the same order.
        u = after[at.legal]
        full = np.bincount(at.src, weights=at.prob, minlength=space.n)
        assert np.array_equal(full[at.legal], plane_sums[space.w_low[u], space.w_high[u]])


def test_transitions_without_arrivals_are_deterministic() -> None:
    quiet = ArrivalModel(((0, 1.0),), 0.0, 1.0, 10.0)
    model = build_model(quiet, cap=3, budget=2, window=2)
    space = model.space
    idx = space.encode(MdpState(2, 1, (0,)))
    assert _successors(model, idx, 2) == [(space.encode(MdpState(1, 0, (2,))), 1.0)]
    assert _successors(model, space.encode(MdpState(0, 0, (2,))), 1) == []


def test_saturated_state_merges_all_mass() -> None:
    # At the cap with action 0, every arrival branch clamps back onto the
    # same successor, so the merged row is a single certain transition.
    model = build_model(FLAGSHIP, cap=10, budget=5, window=1)
    space = model.space
    rows = _successors(model, space.encode(MdpState(10, 10, ())), 0)
    assert rows == [(space.encode(MdpState(10, 10, ())), pytest.approx(1.0))]


# =============================================================
# Solver
# =============================================================


def test_single_absorbing_state_matches_geometric_sum() -> None:
    # One low request arrives every period and none can be processed, so
    # the pinned state earns -1 per period: value -1/(1-gamma) = -10.
    stuck = ArrivalModel(((1, 1.0),), 0.0, 1.0, 10.0)
    model = build_model(stuck, cap=1, budget=0, window=1, discount=0.9)
    policy = value_iteration(model, tolerance=1e-9)
    space = model.space
    assert policy.values[space.encode(MdpState(1, 0, ()))] == pytest.approx(-10.0, abs=1e-7)
    assert policy.values[space.encode(MdpState(0, 0, ()))] == pytest.approx(-9.0, abs=1e-7)


def test_sweep_differences_contract() -> None:
    model = build_model(FLAGSHIP, cap=3, budget=2, window=3, discount=0.9)
    policy = value_iteration(model, tolerance=1e-9)
    diffs = policy.info.sweep_diffs
    assert policy.info.residual <= 0.9 * 1e-9
    # The geometric envelope holds up to float noise in the Bellman backups.
    for before, after in zip(diffs[1:], diffs[2:]):
        assert after <= 0.9 * before + 1e-13


def test_solver_matches_finite_horizon_oracle() -> None:
    cap, budget, window, gamma = 3, 2, 3, 0.9
    model = build_model(FLAGSHIP, cap, budget, window, discount=gamma)
    policy = value_iteration(model, tolerance=1e-9)
    # 0.9^200 < 1e-9, so truncation error is well below the 1e-6 band.
    oracle = _oracle_values(FLAGSHIP, cap, budget, window, gamma, horizon=200)
    assert set(oracle) == {(s.w_low, s.w_high, s.history) for s in model.space.states}
    worst = max(
        abs(v - oracle[(s.w_low, s.w_high, s.history)])
        for v, s in zip(policy.values.tolist(), model.space.states)
    )
    assert worst < 1e-6


def test_action_values_bound_the_policy() -> None:
    model = build_model(FLAGSHIP, cap=3, budget=2, window=3)
    policy = value_iteration(model, tolerance=1e-9)
    q = action_values(model, policy.values)
    greedy = np.argmax(q, axis=1)
    # The greedy action attains the state value, and illegal slots stay -inf.
    assert np.allclose(np.max(q, axis=1), policy.values, atol=1e-7)
    assert np.array_equal(greedy, policy.actions)
    space = model.space
    legal = np.arange(space.budget + 1) <= space.slack[space.hist][:, None]
    assert np.array_equal(np.isfinite(q), legal)


# Each shape: arrival model, cap, budget, window, discount; then the sweep
# count, and SHA-256 prefixes of values.tobytes() + actions.tobytes() and of
# the sweep differences followed by the residual. The quiet models and
# window 1 (every action that empties the queue leaves the same state) hold
# exact ties, which resolve to the smallest action.
_QUIET = ArrivalModel(((0, 1.0),), 0.0, 1.0, 10.0)
_LOWS_ONLY = ArrivalModel(((0, 0.5), (1, 0.4), (5, 0.1)), 0.0, 1.0, 10.0)
_HIGHS_ONLY = ArrivalModel(((0, 0.5), (1, 0.4), (5, 0.1)), 1.0, 1.0, 10.0)
_ONE_EACH = ArrivalModel(((1, 1.0),), 0.5, 1.0, 3.0)
_WIDE = ArrivalModel(((0, 0.2), (2, 0.5), (3, 0.3)), 0.3, 2.0, 5.0)
_TWO_HIGHS = ArrivalModel(((2, 1.0),), 1.0, 1.0, 10.0)
_SOLVER_PINS = [
    (FLAGSHIP, 3, 2, 3, 0.9, 203, "62c77e13ad551eca", "79ff7919a9f38d31"),
    (FLAGSHIP, 4, 2, 1, 0.9, 188, "bcd0625f98c3cf51", "045e1db77e88c970"),
    (FLAGSHIP, 5, 5, 1, 0.9, 8, "fe448d5e9f38caa9", "624f738a5636c3ca"),
    (FLAGSHIP, 3, 0, 2, 0.9, 231, "5ae6bac6174389e1", "67642fcdd385455d"),
    (FLAGSHIP, 6, 3, 4, 0.85, 136, "32c60ccbb9b03ff1", "ca41de7ec35ee7a2"),
    (_QUIET, 3, 2, 2, 0.9, 6, "3ee70bdf9c1a0172", "d9ab3a16545ccd8f"),
    (_QUIET, 4, 3, 1, 0.95, 3, "a4e0eb69585c7031", "e5912f7a79c70037"),
    (_LOWS_ONLY, 4, 2, 3, 0.9, 203, "ece7687ed28c882b", "bed8e9dbca359707"),
    (_HIGHS_ONLY, 4, 2, 3, 0.9, 225, "c12a2e2dc1d8d3fc", "d48922ab6f438860"),
    (_ONE_EACH, 3, 1, 2, 0.9, 216, "fb1db57505a14ad7", "f03275b8885c5dde"),
    (_WIDE, 5, 3, 2, 0.95, 443, "71fa50fe6bc02fc0", "d7913a4ceafdf5ff"),
    (_TWO_HIGHS, 3, 2, 2, 0.9, 231, "8ae2a5028c883544", "7e0c2b858ddba6ce"),
    # Clamping merges outcomes: at cap 0 all of them, at cap 1 most, and at
    # cap 2 under _WIDE outcomes that are not adjacent in outcome order.
    (FLAGSHIP, 0, 2, 2, 0.9, 1, "ea49aa9f6f6cf2d5", "374708fff7719dd5"),
    (FLAGSHIP, 1, 2, 3, 0.9, 186, "e1db1f7a8f37ddf5", "382b51869a57e42f"),
    (_WIDE, 2, 3, 2, 0.95, 416, "8e96deee70c6203d", "7b3011263246e2ff"),
]

# SHA-256 prefix of repr() of every successor list, _successors(model, i, a)
# for each action a and state i: the successors in the order outcomes first
# reach them, with the probabilities merged in outcome order.
_ROW_PINS = {
    "k5-q0.1-cap3-budget2-window3-0.9": "4b829f36dbd1fb4c",
    "k5-q0.1-cap4-budget2-window1-0.9": "6b6b5371cc10db12",
    "k5-q0.1-cap5-budget5-window1-0.9": "c66790241d0370c1",
    "k5-q0.1-cap3-budget0-window2-0.9": "9788e287fadca0dc",
    "k5-q0.1-cap6-budget3-window4-0.85": "75c73d18668de2b3",
    "k0-q0.0-cap3-budget2-window2-0.9": "4d1e88ce5ef1130d",
    "k0-q0.0-cap4-budget3-window1-0.95": "44e466d2906bfdc9",
    "k5-q0.0-cap4-budget2-window3-0.9": "c2fa2c31c7347304",
    "k5-q1.0-cap4-budget2-window3-0.9": "8738c28e497f86f0",
    "k1-q0.5-cap3-budget1-window2-0.9": "5c4e14ba618ffaea",
    "k3-q0.3-cap5-budget3-window2-0.95": "9c94580685c36423",
    "k2-q1.0-cap3-budget2-window2-0.9": "90b0388979f76bf7",
    "k5-q0.1-cap0-budget2-window2-0.9": "e8b48f9868e88780",
    "k5-q0.1-cap1-budget2-window3-0.9": "4796a6b0d2507038",
    "k3-q0.3-cap2-budget3-window2-0.95": "612aba0f22d268f8",
}


def _shape_id(shape) -> str:
    arrivals, cap, budget, window, gamma = shape[:5]
    top = max(k for k, _ in arrivals.count_dist)
    return f"k{top}-q{arrivals.high_prob}-cap{cap}-budget{budget}-window{window}-{gamma}"


@pytest.mark.parametrize("shape", _SOLVER_PINS, ids=_shape_id)
def test_solver_is_pinned_bit_for_bit(shape) -> None:
    arrivals, cap, budget, window, gamma, sweeps, solved, diffs = shape
    policy = value_iteration(build_model(arrivals, cap, budget, window, gamma))
    info = policy.info
    assert info.iterations == sweeps
    digest = hashlib.sha256(policy.values.tobytes() + policy.actions.tobytes()).hexdigest()
    assert digest[:16] == solved
    trail = np.asarray(info.sweep_diffs + (info.residual,)).tobytes()
    assert hashlib.sha256(trail).hexdigest()[:16] == diffs


@pytest.mark.parametrize("shape", _SOLVER_PINS, ids=_shape_id)
def test_transition_rows_are_pinned(shape) -> None:
    model = build_model(*shape[:5])
    pairs = itertools.product(range(model.space.budget + 1), range(model.space.n))
    rows = repr([_successors(model, i, a) for a, i in pairs])
    assert hashlib.sha256(rows.encode()).hexdigest()[:16] == _ROW_PINS[_shape_id(shape)]


def _greedy(space) -> np.ndarray:
    """Slack filling: process min(slack, waiting) in every state."""
    return np.minimum(space.slack[space.hist], space.w_low + space.w_high)


@pytest.mark.parametrize("high_prob", [0.0, 1.0])
def test_homogeneous_stakers_are_served_greedily(high_prob) -> None:
    # With one cost class, MINSLACK (process all the slack allows) is
    # optimal. Only states below cap count: at cap the model drops arrivals,
    # so withholding there sheds queue cost the real queue would pay.
    arrivals = ArrivalModel(((0, 0.5), (1, 0.4), (5, 0.1)), high_prob, 1.0, 10.0)
    for cap, gamma in itertools.product((6, 10), (0.85, 0.95)):
        model = build_model(arrivals, cap, budget=3, window=3, discount=gamma)
        policy = value_iteration(model, tolerance=1e-9)
        space = model.space
        q = action_values(model, policy.values)
        greedy = _greedy(space)
        waiting = np.asarray([s.w_high if high_prob else s.w_low for s in space.states])
        other = np.asarray([s.w_low if high_prob else s.w_high for s in space.states])
        single = (other == 0) & (waiting < cap)
        # The values lie within discount * tolerance / (1 - discount) of the
        # optimum, and each Q-value within that of its own optimum, so a gap
        # up to twice the bound may be a tie.
        gap = q.max(axis=1) - q[np.arange(space.n), greedy]
        tie = gap <= 2 * gamma * 1e-9 / (1 - gamma)
        off = single & (policy.actions != greedy) & ~tie
        assert not off.any(), [space.states[i] for i in np.flatnonzero(off)]


def test_heterogeneous_policy_reserves_capacity() -> None:
    # The flagship (gamma90) model: some state with only lows waiting, below
    # cap, processes fewer than the slack allows, and strictly prefers to.
    model = build_model(FLAGSHIP, cap=10, budget=5, window=5, discount=0.9)
    policy = value_iteration(model, tolerance=1e-9)
    space = model.space
    q = action_values(model, policy.values)
    greedy = _greedy(space)
    lows_only = np.asarray([s.w_high == 0 and s.w_low < space.cap for s in space.states])
    reserve = np.flatnonzero(lows_only & (policy.actions < greedy))
    assert reserve.size > 0
    gain = q[reserve, policy.actions[reserve]] - q[reserve, greedy[reserve]]
    assert gain.min() > 2 * 0.9 * 1e-9 / (1 - 0.9)


def test_solver_rejects_bad_tolerance_and_budgeted_iterations() -> None:
    from exitqueue.errors import NonConvergence

    model = build_model(FLAGSHIP, cap=2, budget=1, window=2)
    with pytest.raises(ConfigError):
        value_iteration(model, tolerance=0.0)
    with pytest.raises(NonConvergence):
        value_iteration(model, tolerance=1e-9, max_iterations=3)


# =============================================================
# Policy files
# =============================================================


def _tiny_policy() -> Policy:
    model = build_model(FLAGSHIP, cap=2, budget=2, window=2, discount=0.9)
    return value_iteration(model, tolerance=1e-9)


def test_policy_file_roundtrip(tmp_path) -> None:
    policy = _tiny_policy()
    path = tmp_path / "tiny.policy"
    save_policy(policy, path)
    back = load_policy(path)
    assert back.discount == policy.discount
    assert back.tolerance == policy.tolerance
    assert np.array_equal(back.actions, policy.actions)
    assert np.allclose(back.values, policy.values, atol=1e-9)
    # Rewriting the loaded policy reproduces the file byte for byte.
    assert policy_text(back) == path.read_text(encoding="ascii")


def test_save_policy_refuses_a_path_under_a_file(tmp_path) -> None:
    (tmp_path / "plain").write_text("not a directory\n", encoding="ascii")
    with pytest.raises(ConfigError, match="cannot write policy file"):
        save_policy(_tiny_policy(), tmp_path / "plain" / "tiny.policy")


def test_one_state_policy_roundtrips(tmp_path) -> None:
    # cap 0, budget 0, window 1: a file with a single state row.
    policy = value_iteration(build_model(FLAGSHIP, cap=0, budget=0, window=1))
    save_policy(policy, tmp_path / "one.policy")
    back = load_policy(tmp_path / "one.policy")
    assert back.space.n == 1 and np.array_equal(back.values, policy.values)
    assert policy_text(back) == (tmp_path / "one.policy").read_text(encoding="ascii")


def test_load_policy_rejects_corruption(tmp_path) -> None:
    policy = _tiny_policy()
    path = tmp_path / "tiny.policy"
    save_policy(policy, path)
    lines = path.read_text(encoding="ascii").splitlines()

    def write(name, rows):
        p = tmp_path / name
        p.write_text("\n".join(rows) + "\n", encoding="ascii")
        return p

    with pytest.raises(ConfigError):
        load_policy(write("header.policy", ["who,what"] + lines[1:]))
    with pytest.raises(ModelMismatch):
        load_policy(write("short.policy", lines[:-1]))
    with pytest.raises(ModelMismatch):
        load_policy(write("dup.policy", lines[:-2] + [lines[-2], lines[-2]]))
    # Rows carry their own index, so reordering them is fine ...
    swapped = lines[:]
    swapped[3], swapped[4] = swapped[4], swapped[3]
    reordered = load_policy(write("order.policy", swapped))
    assert np.array_equal(reordered.actions, policy.actions)
    # ... but a row whose state cells disagree with its index is not.
    mangled = lines[:]
    parts = mangled[3].split(",")
    parts[1] = str(int(parts[1]) + 1)
    mangled[3] = ",".join(parts)
    with pytest.raises(ModelMismatch):
        load_policy(write("state.policy", mangled))
    bad_action = lines[:]
    parts = bad_action[3].split(",")
    parts[-2] = "9"
    bad_action[3] = ",".join(parts)
    with pytest.raises(ModelMismatch):
        load_policy(write("action.policy", bad_action))
    with pytest.raises(ConfigError):
        load_policy(write("garbled.policy", lines[:1] + ["a,b,c,d"] + lines[2:]))
    with pytest.raises(ConfigError):
        load_policy(tmp_path / "missing.policy")


def test_load_policy_is_strict_about_its_header(tmp_path, monkeypatch) -> None:
    save_policy(_tiny_policy(), tmp_path / "tiny.policy")
    lines = (tmp_path / "tiny.policy").read_text(encoding="ascii").splitlines()

    def load(name, changed):
        path = tmp_path / name
        path.write_text("\n".join([*lines[:1], *changed, *lines[3:]]) + "\n", encoding="ascii")
        return load_policy(path)

    # History columns must be h1..h{window-1}, in order.
    for header in ("index,w_low,w_high,h2,action,value", "index,w_low,w_high,hx,action,value",
                   "index,w_high,w_low,h1,action,value", "index,w_low,w_high,h1,h2,action"):
        with pytest.raises(ConfigError, match="bad state header"):
            load("header.policy", [lines[1], header])
    # The metadata's state count is checked before any space is built: at
    # budget 100 it would be 9 * C(101, 1) states, not 27, and at cap 10,
    # budget 100 and window 5, 121 * C(104, 4).
    monkeypatch.setattr(mdp, "StateSpace", None)
    with pytest.raises(ModelMismatch, match="has 27 states, expected 909"):
        load("budget.policy", [lines[1].replace("2,2,", "2,100,", 1), lines[2]])
    with pytest.raises(ModelMismatch, match="expected 556373246$"):
        load("window.policy", ["10,100,0.9,1e-09", "index,w_low,w_high,h1,h2,h3,h4,action,value"])
    with pytest.raises(ConfigError, match="bad state-space parameters"):
        load("negative.policy", [lines[1].replace("2,2,", "2,-1,", 1), lines[2]])
    # Actions are stored as int8, so a budget above 127 is refused outright.
    with pytest.raises(ConfigError, match="budget 500 exceeds 127"):
        load("wide.policy", [lines[1].replace("2,2,", "2,500,", 1), lines[2]])


def test_load_policy_names_a_row_with_an_integer_beyond_int64(tmp_path) -> None:
    save_policy(_tiny_policy(), tmp_path / "tiny.policy")
    lines = (tmp_path / "tiny.policy").read_text(encoding="ascii").splitlines()
    cells = lines[5].split(",")
    cells[1] = "9" * 20
    row = ",".join(cells)
    (tmp_path / "big.policy").write_text("\n".join([*lines[:5], row, *lines[6:]]) + "\n")
    with pytest.raises(ConfigError, match=re.escape(repr(row))):
        load_policy(tmp_path / "big.policy")


# =============================================================
# Live-queue bridge
# =============================================================


def _queue(reqs, budget=2, window=2) -> QueueState:
    cs = ConstraintSet([Constraint(budget, window)])
    return QueueState.initial(cs, arrivals=reqs)


def test_queue_to_mdp_state_counts() -> None:
    reqs = [
        ExitRequest("a", 1, 1.0),
        ExitRequest("b", 1, 10.0),
        ExitRequest("c", 1, 1.0),
    ]
    assert queue_to_mdp_state(_queue(reqs), FLAGSHIP, window=2) == MdpState(2, 1, (0,))


def test_queue_to_mdp_state_refuses_requests_the_model_does_not_count() -> None:
    with pytest.raises(ModelMismatch, match="cost 2.5 is neither"):
        queue_to_mdp_state(_queue([ExitRequest("x", 1, 2.5)]), FLAGSHIP, window=2)
    heavy = _queue([ExitRequest("a", 1, 10.0), ExitRequest("x", 1, 1.0, stake=2)])
    with pytest.raises(ModelMismatch, match="x has stake 2"):
        queue_to_mdp_state(heavy, FLAGSHIP, window=2)
    # Per request the class is checked before the stake.
    both = _queue([ExitRequest("x", 1, 2.5, stake=2)])
    with pytest.raises(ModelMismatch, match="cost 2.5 is neither"):
        queue_to_mdp_state(both, FLAGSHIP, window=2)


def test_queue_to_mdp_state_reverses_recent_history() -> None:
    cs = ConstraintSet([Constraint(2, 3)])
    state = QueueState(
        constraints=cs, period=4, waiting=(), processed_totals=(2, 0, 1)
    )
    m = queue_to_mdp_state(state, FLAGSHIP, window=3)
    assert m.history == (1, 0)
    # Near genesis the periods before the first read as 0.
    early = QueueState(constraints=cs, period=2, waiting=(), processed_totals=(2,))
    assert queue_to_mdp_state(early, FLAGSHIP, window=3).history == (2, 0)


def test_optimal_select_takes_priority_prefix() -> None:
    model = build_model(FLAGSHIP, cap=3, budget=2, window=2, discount=0.9)
    policy = value_iteration(model, tolerance=1e-9)
    reqs = [
        ExitRequest("low1", 1, 1.0),
        ExitRequest("high", 1, 10.0),
        ExitRequest("low2", 1, 1.0),
    ]
    state = _queue(reqs, budget=2, window=2)
    chosen = optimal_select(policy, state, FLAGSHIP)
    want = int(policy.actions[policy.space.encode(MdpState(2, 1, (0,)))])
    assert len(chosen) == min(want, 3)
    if chosen:
        assert chosen[0].validator == "high"
    assert optimal_select(policy, _queue([], 2, 2), FLAGSHIP) == ()
    # Five lows are beyond the cap of 3: the lookup reads the clamped counts.
    beyond = _queue(reqs + [ExitRequest(f"low{i}", 1, 1.0) for i in range(3, 6)], 2, 2)
    chosen = optimal_select(policy, beyond, FLAGSHIP)
    assert len(chosen) == int(policy.take(3, 1, policy.space.history_index((0,))))


def test_optimal_select_validates_the_queue() -> None:
    policy = _tiny_policy()
    with pytest.raises(ModelMismatch):
        optimal_select(policy, _queue([], budget=3, window=2), FLAGSHIP)
    odd_cost = _queue([ExitRequest("x", 1, 2.5)], budget=2, window=2)
    with pytest.raises(ModelMismatch):
        optimal_select(policy, odd_cost, FLAGSHIP)
    heavy = _queue([ExitRequest("x", 1, 1.0, stake=2)], budget=2, window=2)
    with pytest.raises(ModelMismatch):
        optimal_select(policy, heavy, FLAGSHIP)


def test_optimal_mechanism_wrapper() -> None:
    policy = _tiny_policy()
    mech = OptimalMechanism(policy=policy, arrival_model=FLAGSHIP)
    assert mech.name == "optimal"
    cs = mech.policy.constraints
    assert (int(cs[0].delta), cs[0].window) == (2, 2)
    state = _queue([ExitRequest("high", 1, 10.0)], budget=2, window=2)
    assert mech.select(state) == optimal_select(policy, state, FLAGSHIP)
