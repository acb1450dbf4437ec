"""Trial execution, metrics, Monte Carlo aggregation, and both engines.

The discounted metric's boundary values are hand-computed. One parity table
per engine pins it bit for bit against the object engine (run_trial and the
metric functions): _ENGINE_ROWS holds the count engine's run shapes, and the
shapes it must refuse, as monte_carlo routes them; the unit-stake table runs
every mechanism, order, mode and value shape on the unit-stake engine. Every
trace that reaches aggregation is re-audited here against the window checker.
"""

from __future__ import annotations

import functools
import heapq
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exitqueue.core import (
    Constraint,
    ConstraintMode,
    ConstraintSet,
    ExitRequest,
    QueueState,
    check_trace_feasible,
    min_slack,
    step,
)
from exitqueue.distributions import Discrete, Exponential, Pareto, Uniform
from exitqueue import cli, mechanisms, simulate
from exitqueue.errors import (
    ConfigError,
    FeasibilityViolation,
    InfeasibleProcessing,
    ModelMismatch,
    NoWithdrawals,
)
from exitqueue.mdp import ArrivalModel, OptimalMechanism, build_model, value_iteration
from exitqueue.mechanisms import Mechanism
from exitqueue.simulate import (
    MonteCarloSummary,
    SimulationConfig,
    TrialResult,
    brute_force_schedules,
    discounted_reward,
    make_histogram,
    monte_carlo,
    run_trial,
    sample_arrival_schedule,
    steady_state_disutility,
)
from exitqueue.simulate import _fastlane_eligible, _unit_audit

FLAGSHIP_COUNTS = Discrete((0, 1, 5), (0.5, 0.4, 0.1))
FLAGSHIP_VALUES = Discrete((1, 10), (0.9, 0.1))
ABS_25 = ConstraintSet([Constraint(2, 5)])
_FRACTION = ConstraintMode.FRACTION_OF_STAKE


def _flagship(mechanism, steps=60, trials=5, seed=0, **kw) -> SimulationConfig:
    return SimulationConfig(
        constraints=ABS_25,
        mechanism=mechanism,
        arrival_counts=FLAGSHIP_COUNTS,
        values=kw.pop("values", FLAGSHIP_VALUES),
        steps=steps,
        trials=trials,
        seed=seed,
        metric=kw.pop("metric", "discounted"),
        discount=kw.pop("discount", 0.9),
        **kw,
    )


def _result(penalties, log, constraints=ABS_25) -> TrialResult:
    return TrialResult(
        per_period_penalty=tuple(penalties),
        processed_log=tuple(log),
        trace=tuple(0 for _ in penalties),
        final_state=QueueState.initial(constraints),
    )


# =============================================================
# Discounted metric
# =============================================================


def test_discounted_reward_of_pure_waiting() -> None:
    # Two periods with one unit of unprocessed cost each: the charge
    # stream is (-1, -1) at weights gamma, gamma^2.
    r = _result([-1.0, -1.0], [(), ()])
    g = 0.9
    assert discounted_reward(r, g) == pytest.approx((1 - g) * (g + g * g) * -1.0)
    assert discounted_reward(r, g) == pytest.approx(-0.171)


def test_discounted_reward_charges_through_processing() -> None:
    # Period 1 processes a cost-3 request on arrival: the recorded penalty
    # is 0 but the request still pays for the period it spent in the queue.
    req = ExitRequest("a", 1, 3.0)
    r = _result([0.0, -2.0], [((req, 0, 3.0),), ()])
    g = 0.9
    want = (1 - g) * (g * (0.0 - 3.0) + g * g * (-2.0 - 0.0))
    assert discounted_reward(r, g) == pytest.approx(want)
    assert discounted_reward(r, g) == pytest.approx(-0.432)


def test_discounted_reward_of_constant_stream_is_one_per_period() -> None:
    n = 350
    r = _result([-1.0] * n, [()] * n)
    g = 0.9
    assert discounted_reward(r, g) == pytest.approx(-g * (1 - g**n), rel=1e-12)
    assert abs(discounted_reward(r, g) + 0.9) < 1e-12


def test_discounted_reward_validates_gamma() -> None:
    r = _result([0.0], [()])
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ConfigError):
            discounted_reward(r, bad)


def test_quiet_trial_scores_zero() -> None:
    config = SimulationConfig(
        constraints=ABS_25,
        mechanism=Mechanism.minslack(),
        arrival_counts=Discrete((0,), (1.0,)),
        values=FLAGSHIP_VALUES,
        steps=20,
        discount=0.9,
    )
    r = run_trial(config, seed=0)
    assert r.per_period_penalty == (0.0,) * 20
    assert discounted_reward(r, 0.9) == 0.0


# =============================================================
# Steady-state metric
# =============================================================


def test_steady_state_single_delay() -> None:
    req = ExitRequest("a", 1, 2.0)
    r = _result([0.0] * 4, [(), (), (), ((req, 3, 2.0),)])
    assert steady_state_disutility(r, burn_in=0) == -6.0


def test_steady_state_immediate_processing_scores_zero() -> None:
    req = ExitRequest("a", 1, 5.0)
    r = _result([0.0, 0.0], [((req, 0, 5.0),), ()])
    assert steady_state_disutility(r, burn_in=0) == 0.0


def test_steady_state_averages_and_respects_burn_in() -> None:
    a = ExitRequest("a", 1, 2.0)
    b = ExitRequest("b", 2, 4.0)
    log = [((a, 1, 2.0),), ((b, 1, 4.0),), ()]
    r = _result([0.0] * 3, log)
    assert steady_state_disutility(r, burn_in=0) == pytest.approx(-3.0)
    # burn_in 1 drops the period-1 processing entirely.
    assert steady_state_disutility(r, burn_in=1) == pytest.approx(-4.0)


def test_steady_state_charges_leftovers_at_final_period() -> None:
    waiting = (ExitRequest("stuck", 2, 3.0),)
    final = QueueState(
        constraints=ABS_25, period=6, waiting=waiting,
        processed_totals=(0, 0, 0, 0, 0),
    )
    r = TrialResult(
        per_period_penalty=(0.0, -3.0, -3.0, -3.0, -3.0),
        processed_log=((), (), (), (), ()),
        trace=(0, 0, 0, 0, 0),
        final_state=final,
    )
    # Never processed: charged as if processed at the last period (delay 3).
    assert steady_state_disutility(r, burn_in=0) == -9.0


def test_steady_state_raises_without_withdrawals() -> None:
    r = _result([0.0, 0.0], [(), ()])
    with pytest.raises(NoWithdrawals):
        steady_state_disutility(r, burn_in=0)
    with pytest.raises(ConfigError):
        steady_state_disutility(r, burn_in=2)


# =============================================================
# Arrival sampling
# =============================================================


def test_sample_arrivals_quiet_period_is_empty() -> None:
    rng = np.random.default_rng(0)
    assert sample_arrival_schedule(rng, 3, Discrete((0,), (1.0,)), FLAGSHIP_VALUES) == [[]] * 3


def test_sample_arrivals_labels_requests_by_period() -> None:
    rng = np.random.default_rng(1)
    schedule = sample_arrival_schedule(rng, 7, Discrete((3,), (1.0,)), FLAGSHIP_VALUES)
    assert len(schedule) == 7
    for t, batch in enumerate(schedule, start=1):
        assert [r.validator for r in batch] == [f"p{t}.0", f"p{t}.1", f"p{t}.2"]
        assert all(r.requested_at == t for r in batch)
        assert all(r.cost in (1.0, 10.0) for r in batch)


def test_flagship_arrival_statistics() -> None:
    rng = np.random.default_rng(2)
    counts = FLAGSHIP_COUNTS.sample(rng, 1_000_000)
    assert abs(counts.mean() - 0.9) < 0.003
    costs = FLAGSHIP_VALUES.sample(rng, 1_000_000)
    assert abs((costs == 10.0).mean() - 0.1) < 0.001
    # The schedule builder wires the same draws into request objects.
    schedule = sample_arrival_schedule(
        np.random.default_rng(3), 50_000, FLAGSHIP_COUNTS, FLAGSHIP_VALUES
    )
    sizes = [len(batch) for batch in schedule]
    all_costs = [r.cost for batch in schedule for r in batch]
    assert abs(np.mean(sizes) - 0.9) < 0.02
    assert abs(np.mean([c == 10.0 for c in all_costs]) - 0.1) < 0.005


def test_schedule_matches_bulk_draw_stream() -> None:
    # One counts draw then one costs draw, so an array consumer can replay
    # the identical stream from the same seed.
    steps = 40
    schedule = sample_arrival_schedule(
        np.random.default_rng(9), steps, FLAGSHIP_COUNTS, FLAGSHIP_VALUES
    )
    rng = np.random.default_rng(9)
    counts = np.asarray(FLAGSHIP_COUNTS.sample(rng, steps), dtype=np.int64)
    costs = FLAGSHIP_VALUES.sample(rng, int(counts.sum()))
    assert [len(b) for b in schedule] == counts.tolist()
    assert [r.cost for b in schedule for r in b] == costs.tolist()


# =============================================================
# Trials
# =============================================================


def test_run_trial_is_deterministic_in_the_seed() -> None:
    config = _flagship(Mechanism.prio_minslack(), steps=30)
    assert run_trial(config, 11) == run_trial(config, 11)
    assert run_trial(config, 11) != run_trial(config, 12)


def test_run_trial_shapes_and_audit() -> None:
    config = _flagship(Mechanism.minslack(), steps=25)
    r = run_trial(config, 4)
    assert r.steps == 25
    assert len(r.processed_log) == 25
    assert r.trace == r.final_state.processed_totals
    assert all(p <= 0 for p in r.per_period_penalty)
    assert check_trace_feasible(r.trace, None, config.constraints)


def test_minslack_drains_a_burst_in_window_steps() -> None:
    # Four unit requests at once under constraint (2, 3): two leave
    # immediately and the window admits the rest three periods later.
    cs = ConstraintSet([Constraint(2, 3)])
    reqs = [ExitRequest(f"v{i}", 1, 1.0) for i in range(4)]
    state = QueueState.initial(cs, arrivals=reqs)
    for _ in range(4):
        state = step(state, (), Mechanism.minslack().select(state))
    assert state.processed_totals == (2, 0, 0, 2)
    assert state.waiting == ()

    # Theorem twin: that trace prefix-dominates every feasible schedule.
    schedules = brute_force_schedules(reqs, cs, horizon=4)
    assert (2, 0, 0, 2) in schedules
    greedy = np.cumsum((2, 0, 0, 2))
    for s in schedules:
        assert np.all(np.cumsum(s) <= greedy)


# =============================================================
# Steady-state oracle
# =============================================================
#
# An independent reimplementation of run_trial + steady_state_disutility for
# the steady-state comparison (window (5, 5), flagship arrival counts). Each
# mechanism is an order key for a heap plus a capacity map of the window
# slack; unit stakes make every selection the first `capacity` requests in
# heap order.

_STEADY_MECHANISMS = {
    "constant": (Mechanism.constant(1, sort_key="fcfs"), False, (0, 1, 1, 1, 1, 1)),
    "minslack": (Mechanism.minslack(), False, (0, 1, 2, 3, 4, 5)),
    "prio": (Mechanism.prio_minslack(), True, (0, 1, 2, 3, 4, 5)),
    # round-half-down(0.9 * slack)
    "alpha": (Mechanism.alpha_minslack("0.9"), True, (0, 1, 2, 3, 4, 4)),
}


def _heap_steady_state(values, by_cost: bool, capacity, steps: int, burn_in: int, seed: int):
    rng = np.random.default_rng(seed)
    # One bulk draw of counts, then one of costs, as sample_arrival_schedule.
    counts = FLAGSHIP_COUNTS.sample(rng, steps).tolist()
    costs = iter(values.sample(rng, int(sum(counts))).tolist())
    heap: list = []
    processed: list[int] = []
    terms: list[float] = []
    seq = 0
    for t in range(1, steps + 1):
        for _ in range(counts[t - 1]):
            c = next(costs)
            # Costliest first or first come; arrival order breaks ties.
            heapq.heappush(heap, (-c if by_cost else 0.0, seq, t, c))
            seq += 1
        take = min(capacity[5 - sum(processed[-4:])], len(heap))
        for _ in range(take):
            _, _, arrived, c = heapq.heappop(heap)
            if t > burn_in:
                terms.append(-c * (t - arrived))
        processed.append(take)
    # Still waiting at the end: charged as if processed in the final period.
    terms.extend(-c * (steps - arrived) for _, _, arrived, c in heap)
    return math.fsum(terms) / len(terms)


def test_steady_state_oracle_matches_object_engine_bitwise() -> None:
    steps, burn_in = 1_500, 300
    for values in (Uniform(0.0, 1.0), Exponential(0.1), Pareto(2.0, 5.0)):
        for name, (mechanism, by_cost, capacity) in _STEADY_MECHANISMS.items():
            config = SimulationConfig(
                constraints=ConstraintSet([Constraint(5, 5)]),
                mechanism=mechanism,
                arrival_counts=FLAGSHIP_COUNTS,
                values=values,
                steps=steps,
                metric="steady-state",
                burn_in=burn_in,
            )
            for seed in (0, 1):
                got = steady_state_disutility(run_trial(config, seed), burn_in)
                want = _heap_steady_state(values, by_cost, capacity, steps, burn_in, seed)
                assert got == want, (name, values, seed)


# =============================================================
# Monte Carlo
# =============================================================


def test_monte_carlo_summary_statistics() -> None:
    config = _flagship(Mechanism.prio_minslack(), steps=30, trials=64)
    s = monte_carlo(config)
    arr = np.asarray(s.values)
    assert s.mean == pytest.approx(arr.mean())
    assert s.stderr == pytest.approx(arr.std(ddof=1) / 8)
    assert s.p001 == pytest.approx(np.quantile(arr, 0.001))
    assert s.p50 == pytest.approx(np.quantile(arr, 0.5))
    assert s.mechanism == "prio-minslack"
    assert (s.trials, s.steps, s.gamma, s.seed) == (64, 30, 0.9, 0)


def test_monte_carlo_single_trial_has_zero_stderr() -> None:
    config = _flagship(Mechanism.minslack(), steps=10, trials=1)
    s = monte_carlo(config)
    assert s.stderr == 0.0
    assert s.p001 == s.p50 == s.mean


def test_steady_state_requires_processing_activity() -> None:
    config = SimulationConfig(
        constraints=ABS_25,
        mechanism=Mechanism.minslack(),
        arrival_counts=Discrete((0,), (1.0,)),
        values=FLAGSHIP_VALUES,
        steps=10,
        metric="steady-state",
    )
    with pytest.raises(NoWithdrawals):
        monte_carlo(config)


# =============================================================
# Count engine parity
# =============================================================


def test_fastlane_routing() -> None:
    # The count engine takes every discounted run whose queue two class
    # counts describe: one cost level under any order, or two under the cost
    # order, which serves the costlier class first; in either mode, under
    # any number of windows. An FCFS or bid order interleaves two classes
    # by arrival, and the steady-state metric needs who left when.
    one_level = Discrete((1.0,), (1.0,))
    two_windows = ConstraintSet([Constraint(2, 5), Constraint(4, 10)])
    fraction = ConstraintSet([Constraint("1/50", 1), Constraint("1/20", 6)], _FRACTION)
    cost_orders = (Mechanism.prio_minslack(), Mechanism.alpha_minslack("0.9"),
                   Mechanism.constant(2))
    by_arrival = (Mechanism.minslack(), Mechanism.constant(2, sort_key="fcfs"),
                  Mechanism.prio_minslack(sort_key="bid"))
    for mechanism in cost_orders:
        assert _fastlane_eligible(_flagship(mechanism))
        assert _fastlane_eligible(replace(_flagship(mechanism), constraints=two_windows))
        assert _fastlane_eligible(replace(_flagship(mechanism), constraints=fraction,
                                          initial_stake=200))
    for mechanism in cost_orders + by_arrival:
        assert _fastlane_eligible(_flagship(mechanism, values=one_level))
        assert _fastlane_eligible(replace(_flagship(mechanism, values=one_level),
                                          constraints=fraction, initial_stake=200))
        for values in (one_level, FLAGSHIP_VALUES):
            assert not _fastlane_eligible(
                _flagship(mechanism, values=values, metric="steady-state", discount=None))
        for values in (Discrete((1, 5, 10), (0.8, 0.1, 0.1)), Uniform(0.0, 1.0),
                       Pareto(2.0, 5.0)):
            assert not _fastlane_eligible(_flagship(mechanism, values=values))
    for mechanism in by_arrival:
        assert not _fastlane_eligible(_flagship(mechanism))
        assert not _fastlane_eligible(replace(_flagship(mechanism), constraints=two_windows))
    assert [m.order for m in cli._mechanisms(_CHURN)] == ["fcfs", "fcfs", "cost"]


@functools.cache
def _flagship_optimal(high_prob=0.1, costs=(1.0, 10.0)) -> OptimalMechanism:
    arrivals = ArrivalModel(FLAGSHIP_COUNTS.as_count_dist(), high_prob, *costs)
    policy = value_iteration(
        build_model(arrivals, cap=4, budget=2, window=5, discount=0.9), tolerance=1e-9
    )
    return OptimalMechanism(policy=policy, arrival_model=arrivals)


def _row(label: str, config: SimulationConfig, count_engine: bool = True):
    return pytest.param(config, count_engine, id=label)


_CHURN = cli.load_experiment(Path(__file__).resolve().parents[1] / "configs" / "churn_fraction.cfg")
_COST_ORDERS = {"prio": Mechanism.prio_minslack(), "alpha": Mechanism.alpha_minslack("0.9"),
                "constant": Mechanism.constant(1)}
# Thirds are not integral, so each queue sum rounds, as math.fsum rounds it.
_THIRDS = Discrete((1 / 3,), (1.0,))
_TWO_THIRDS = Discrete((1 / 3, 2 / 3), (0.9, 0.1))
_TENTHS = Discrete((0.1, 1.0), (0.5, 0.5))
_TWO_WINDOWS = ConstraintSet([Constraint(2, 3), Constraint(5, 8)])
# 3/10**30 of a stake of 10**30 is a capacity of 3, then 2 once one exits;
# 1/50 of it passes int64, and so do both windows' tables before capping.
_HUGE = ConstraintSet([Constraint(Fraction(3, 10**30), 4), Constraint("1/50", 1)], _FRACTION)

# Each row is a run and whether the count engine takes it; either way
# monte_carlo gives run_trial's values, trial by trial from the run's seed.
_ENGINE_ROWS = [
    # The high point may be listed first, or never drawn.
    *(_row(f"{name}-{label}", _flagship(mech, steps=60, trials=30, seed=17, values=values))
      for name, mech in _COST_ORDERS.items()
      for label, values in (("flagship", FLAGSHIP_VALUES), ("thirds", _TWO_THIRDS),
                            ("high-first", Discrete((10, 1), (0.1, 0.9))),
                            ("never-high", Discrete((1, 10), (1.0, 0.0))))),
    # Any two of these costs overflow, but the queue never holds two, so
    # every queue sum converts and every trial is finite. One trial each:
    # the stderr of several overflows.
    *(_row(f"no-two-costs-seed{seed}",
           replace(_flagship(Mechanism.prio_minslack(), steps=12, trials=1, seed=seed,
                             discount=0.1, values=Discrete((1e308, 1.7e308), (0.5, 0.5))),
                   arrival_counts=Discrete((0, 1), (0.5, 0.5)),
                   constraints=ConstraintSet([Constraint(1, 1)])))
      for seed in (5, 6, 7)),
    _row("optimal", _flagship(_flagship_optimal(), steps=60, trials=20, seed=23)),
    # A heuristic's slack comes from the cumulative counts, not from an index
    # of window histories: a (16, 64) window, with C(79, 16) (about 1.5e16)
    # histories, runs on the count engine as a (2, 1) window does.
    *(_row(f"window-{delta}-{window}",
           replace(_flagship(Mechanism.prio_minslack(), steps=100, trials=3, seed=9),
                   constraints=ConstraintSet([Constraint(delta, window)])))
      for delta, window in ((16, 64), (2, 40), (2, 1))),
    *(_row(f"churn-{m.name}", replace(_CHURN.sim_config(m), trials=3))
      for m in cli._mechanisms(_CHURN)),
    _row("minslack-thirds", _flagship(Mechanism.minslack(), values=_THIRDS)),
    _row("bid-thirds", _flagship(Mechanism.prio_minslack(sort_key="bid"), values=_THIRDS)),
    _row("alpha-two-windows",
         replace(_flagship(Mechanism.alpha_minslack("0.9")), constraints=_TWO_WINDOWS)),
    _row("prio-thirds-two-windows",
         replace(_flagship(Mechanism.prio_minslack(), values=_TWO_THIRDS),
                 constraints=_TWO_WINDOWS)),
    _row("prio-huge-fraction",
         replace(_flagship(Mechanism.prio_minslack()), constraints=_HUGE, initial_stake=10**30)),
    _row("minslack-huge-fraction",
         replace(_flagship(Mechanism.minslack(), values=_THIRDS), constraints=_HUGE,
                 initial_stake=10**30)),
    # Capacities of about 2e28 and of 10**20, past int64: minslack's
    # capacity is the slack itself.
    _row("minslack-fraction-past-int64",
         replace(_flagship(Mechanism.minslack(), values=_THIRDS), initial_stake=10**30,
                 constraints=ConstraintSet([Constraint("1/50", 1)], _FRACTION))),
    _row("minslack-absolute-past-int64",
         replace(_flagship(Mechanism.minslack(), values=_THIRDS),
                 constraints=ConstraintSet([Constraint(10**20, 5)]))),
    # Five a period fill a (300, 100) window by period 61, and its slack
    # falls to the least that the lookup spans.
    _row("alpha-fills-window",
         replace(_flagship(Mechanism.alpha_minslack("0.9"), steps=70, values=_THIRDS),
                 arrival_counts=Discrete((5,), (1.0,)),
                 constraints=ConstraintSet([Constraint(300, 100)]))),
    # Ten requests of 2**50 + 1 wait and nine stay: the nine round, so
    # their cost and the one served do not sum to the ten's, and halving
    # keeps the difference.
    _row("ten-rounding",
         replace(_flagship(Mechanism.minslack(), steps=1, trials=1, discount=0.5,
                           values=Discrete((2.0**50 + 1,), (1.0,))),
                 arrival_counts=Discrete((10,), (1.0,)),
                 constraints=ConstraintSet([Constraint(1, 1)]))),
    # A cost of 1.0 is 2**55 units over the scale of 0.1, so the queue's
    # units may pass int64 once it holds 256, from period 12, and sum in
    # Python ints in every period where they may.
    _row("prio-tenths-past-int64",
         replace(_flagship(Mechanism.prio_minslack(), steps=20, trials=2, values=_TENTHS),
                 arrival_counts=Discrete((24,), (1.0,)),
                 constraints=ConstraintSet([Constraint(5, 5)]))),
    # An optimal policy solved for costs 0.1 and 1.0 rounds apart, and
    # at 24 arrivals a period sums past int64 from period 12.
    _row("optimal-tenths", _flagship(_flagship_optimal(0.5, (0.1, 1.0)), values=_TENTHS)),
    _row("optimal-tenths-past-int64",
         replace(_flagship(_flagship_optimal(0.5, (0.1, 1.0)), steps=20, trials=2,
                           values=_TENTHS),
                 arrival_counts=Discrete((24,), (1.0,)))),
    # The unit-stake engine runs the rest: an FCFS order over two levels,
    # and the cost orders under the steady-state metric, where the queue
    # builds (0.9 arrivals against 0.4 capacity), so the order matters.
    _row("minslack-seed100", _flagship(Mechanism.minslack(), steps=30, trials=4, seed=100),
         False),
    *(_row(f"steady-state-{name}-burn-in-{burn_in}",
           _flagship(mech, steps=60, trials=20, seed=41, metric="steady-state", discount=None,
                     burn_in=burn_in), False)
      for burn_in in (0, 20) for name, mech in _COST_ORDERS.items()),
]


@pytest.mark.parametrize(("config", "count_engine"), _ENGINE_ROWS)
def test_count_engine_matches_object_engine_on_every_shape(config, count_engine) -> None:
    assert _fastlane_eligible(config) == count_engine
    assert list(monte_carlo(config).values) == _object_values(config)


@pytest.mark.parametrize(
    ("config", "bound"),
    [
        # No window holds more than steps x the largest arrival count, so a
        # heuristic's capacity lookup covers 201 slacks here, not two million.
        pytest.param(replace(_flagship(Mechanism.prio_minslack(), steps=40, trials=3),
                             constraints=ConstraintSet([Constraint(2_000_000, 5)])),
                     10 * 2**20, id="absolute-capacity"),
        # A fraction window's capacity falls by at most what was processed, so
        # at a capacity of two million the lookup covers 301 slacks here.
        pytest.param(replace(_flagship(Mechanism.prio_minslack(), steps=40, trials=3),
                             constraints=ConstraintSet([Constraint("1/2", 5)], _FRACTION),
                             initial_stake=4_000_000),
                     10 * 2**20, id="fraction-capacity"),
        # 24 arrivals a period against a budget of one: the queue grows by 23 a
        # period, to 1,380 over 60. Each period's cost is a sum of class units,
        # not a read of a table over every pair of class counts reached.
        pytest.param(replace(_flagship(Mechanism.prio_minslack(), trials=3),
                             arrival_counts=Discrete((24,), (1.0,)),
                             constraints=ConstraintSet([Constraint(5, 5)])),
                     4 * 2**20, id="growing-queue"),
    ],
)
def test_count_engine_memory_is_bounded(config, bound) -> None:
    assert _fastlane_eligible(config)
    summary, peak = _traced_peak(config)
    assert list(summary.values) == _object_values(config)
    assert peak < bound


def _traced_peak(config: SimulationConfig) -> tuple[MonteCarloSummary, int]:
    """monte_carlo's summary, and the peak memory tracemalloc traced as it ran."""
    tracemalloc.start()
    try:
        return monte_carlo(config), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_engine_counts_as_the_unit_stake_engine_past_a_breach(monkeypatch) -> None:
    # A capacity map one above the slack overfills the window, so the slack
    # falls below zero, where both count passes read the capacity at zero.
    # They give the same counts, which monte_carlo then refuses.
    monkeypatch.setattr(Mechanism, "capacity", lambda self, slack: slack + 1)
    for constraints, stake in _UNIT_CONSTRAINTS.values():
        config = replace(_flagship(Mechanism.minslack(), values=Discrete((1.0,), (1.0,))),
                         constraints=constraints, initial_stake=stake)
        assert _fastlane_eligible(config)
        np.testing.assert_array_equal(
            *(np.concatenate([cum for _, cum, _ in blocks(config)])
              for blocks in (simulate._count_blocks, simulate._unit_blocks)))



def _greedy_tampered() -> OptimalMechanism:
    """The flagship policy with every action set to the whole budget."""
    mech = _flagship_optimal()
    greedy = np.full(mech.policy.actions.size, mech.policy.space.budget, np.int8)
    return replace(mech, policy=replace(mech.policy, actions=greedy))


def _first_greedy_breach(config: SimulationConfig) -> int:
    """The first seed whose greedy trace breaks the run's window. run_trial
    cannot run the greedy policy itself (step refuses the breach), so
    MINSLACK under a one-period window of the same budget serves what it
    does, min(budget, waiting) each period, and check_trace_feasible audits
    that trace against the run's constraints."""
    (c,) = config.constraints
    greedy = replace(config, mechanism=Mechanism.minslack(),
                     constraints=ConstraintSet([Constraint(c.delta, 1)]))
    for seed in range(config.seed, config.seed + config.trials):
        r = run_trial(greedy, seed)
        if not check_trace_feasible(r.trace, None, config.constraints):
            return seed
    raise AssertionError("no trial breaks the window")


def test_count_engine_audits_a_policy_that_breaks_its_window() -> None:
    # Over five periods the first seed's greedy trace keeps the window, so
    # the audit must name the trial that breaks it, not the run's first.
    config = _flagship(_greedy_tampered(), steps=5, trials=10)
    assert _fastlane_eligible(config)
    first = _first_greedy_breach(config)
    assert first > config.seed
    with pytest.raises(FeasibilityViolation,
                       match=f"optimal produced an infeasible trace at seed {first}:"):
        monte_carlo(config)


def test_optimal_policy_that_does_not_fit_the_run_is_a_model_mismatch() -> None:
    mech = _flagship_optimal()
    # Every drawn cost is 1.0, which the policy knows, but the run's cost
    # points are not the ones it was solved for.
    with pytest.raises(ModelMismatch):
        replace(_flagship(mech), values=Discrete((1.0, 20.0), (1.0, 0.0)))
    with pytest.raises(ModelMismatch):
        replace(_flagship(mech), constraints=ConstraintSet([Constraint(3, 5)]))
    with pytest.raises(ConfigError, match="discounted metric"):
        _flagship(mech, steps=30, metric="steady-state", discount=None)


# =============================================================
# Unit-stake engine parity
# =============================================================
#
# Every Mechanism that the count engine does not take runs through the
# unit-stake engine, which must give run_trial's metric bit for bit. Runs
# here put it on every shape, those the count engine would take too.

_UNIT_MECHANISMS = [
    Mechanism.minslack(),
    Mechanism.prio_minslack(),
    Mechanism.prio_minslack(sort_key="bid"),
    Mechanism.alpha_minslack("0.7"),
    Mechanism.alpha_minslack("0.9", sort_key="bid"),
    Mechanism.constant(2),
    Mechanism.constant(2, sort_key="bid"),
    Mechanism.constant(1, sort_key="fcfs"),
]
# (constraints, initial_stake): capacities below the mean arrival rate of
# 0.9, so queues build and the order matters; the fraction windows shrink
# as the stake leaves.
_UNIT_CONSTRAINTS = {
    "absolute": (ConstraintSet([Constraint(3, 4)]), None),
    "absolute-staked": (ConstraintSet([Constraint(3, 4)]), 1_000),
    "two-windows": (ConstraintSet([Constraint(2, 3), Constraint(5, 8)]), None),
    "fraction": (ConstraintSet([Constraint("1/50", 1), Constraint("1/20", 6)], _FRACTION), 200),
}
# Thirds are not integral, and costs near 1e-12 make the exact-sum scale large.
_UNIT_VALUES = [
    FLAGSHIP_VALUES,
    Discrete((1 / 3, 2.5, 10.0), (0.6, 0.3, 0.1)),
    Uniform(0.0, 1.0),
    Exponential(0.5),
    Exponential(1e12),
    Pareto(2.0, 5.0),
    Discrete((1.0,), (1.0,)),  # homogeneous stakers: every ranking is the arrival order
]


def _unit_stake_values(config: SimulationConfig, monkeypatch) -> list[float]:
    """monte_carlo's values with the unit-stake engine taking every run."""
    monkeypatch.setattr(simulate, "_fastlane_eligible", lambda config: False)
    return list(monte_carlo(config).values)


def _object_values(config: SimulationConfig) -> list[float]:
    out = []
    for i in range(config.trials):
        r = run_trial(config, config.seed + i)
        if config.metric == "discounted":
            out.append(discounted_reward(r, config.discount))
        else:
            out.append(steady_state_disutility(r, config.burn_in))
    return out


@pytest.mark.parametrize("metric", ["discounted", "steady-state"])
@pytest.mark.parametrize("mechanism", _UNIT_MECHANISMS, ids=lambda m: f"{m.name}-{m.order}")
def test_unit_stake_engine_matches_object_engine_bitwise(mechanism, metric, monkeypatch) -> None:
    for label, (constraints, stake) in _UNIT_CONSTRAINTS.items():
        for values in _UNIT_VALUES:
            config = SimulationConfig(
                constraints=constraints,
                mechanism=mechanism,
                arrival_counts=FLAGSHIP_COUNTS,
                values=values,
                steps=60,
                trials=2,
                seed=31,
                metric=metric,
                discount=0.9 if metric == "discounted" else None,
                burn_in=0 if metric == "discounted" else 10,
                initial_stake=stake,
            )
            want = _object_values(config)
            assert _unit_stake_values(config, monkeypatch) == want, (label, values)


# Sums that math.fsum rounds, at the ties and the ends of the float range.
_FSUM_CASES = [
    [2.0**53, 1.0],  # 2^53 + 1 ties down to even
    [2.0**53 + 2, 1.0],  # and up
    [2.0**53, 1.0, 2.0],
    [1.0, 2.0**-53],  # half of 2^-52 above 1.0 ties down
    [1.0 + 2.0**-52, 2.0**-53],  # and up
    [1.0, 2.0**-53, 2.0**-106],  # just past the tie
    [5e-324, 1.0],  # a subnormal
    [5e-324, 5e-324, 2.0**-1022],
    [1 / 3, 1 / 3, 1 / 3],
    [0.1] * 10,
    [1 / 3, 2 / 3, 1e-12, 10.0, 1e16],
    [1e16, 1.0, -1e16],
    [],
]


def test_exact_units_round_as_fsum() -> None:
    # The exact-sum rule both engines use: a sum of units over the scale is
    # the float math.fsum gives for the same costs, and overflows as it does.
    for xs in _FSUM_CASES:
        units, scale = simulate._exact_units(xs)
        assert sum(units) / scale == math.fsum(xs), xs
        assert [u / scale for u in units] == xs
    units, scale = simulate._exact_units([1.7e308, 1.7e308])
    with pytest.raises(OverflowError):
        math.fsum([1.7e308, 1.7e308])
    with pytest.raises(OverflowError):
        sum(units) / scale


def test_over_scale_divides_as_python_ints_do() -> None:
    # The one conversion of exact-unit sums both engines score through: int64
    # below 2**63, Python ints in bulk, and one element at a time where a sum
    # does not convert (2**1024 or more) all give the int division, or nan
    # where the quotient leaves the float range. Near 2**62 a float's spacing
    # is 2**10, so int64 sums there tie, and round half to even.
    near_int64_top = [[2.0**62, 2.0**9], [2.0**62 + 2.0**10, 2.0**9], [2.0**62, 2.0**9, 1.0]]
    for xs in _FSUM_CASES + near_int64_top + [[1.7e308, 1.7e308], [5e-324, 2.0**1000, 2.0**1000]]:
        if min(xs, default=0) < 0:
            continue
        units, scale = simulate._exact_units(xs)
        sums = np.cumsum(np.array([0] + units, dtype=object))
        want = [_fsum_or_nan(xs[:j]) for j in range(len(xs) + 1)]
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(simulate._over_scale(sums, scale), want)
            if sums[-1] < 2**63:
                np.testing.assert_array_equal(
                    simulate._over_scale(sums.astype(np.int64), scale), want)


def _one_a_period(trials: list[list[float]]) -> tuple[np.ndarray, ...]:
    """A unit-stake block (counts, costs, cum, served) whose trials each draw
    all their costs in period 1 and serve one a period, in arrival order,
    with one period to spare."""
    n = max(map(len, trials)) + 1
    counts = np.zeros((len(trials), n), dtype=np.int64)
    counts[:, 0] = [len(xs) for xs in trials]
    cum = np.array([[min(t, len(xs)) for t in range(n + 1)] for xs in trials])
    costs = np.array([x for xs in trials for x in xs], dtype=np.float64)
    return counts, costs, cum, np.arange(costs.size)


def _fsum_or_nan(xs: list[float]) -> float:
    try:
        return math.fsum(xs)
    except OverflowError:
        return math.nan


@pytest.mark.parametrize(
    "trials",
    [[[2.0**52], [2.0**52 - 1, 0.0]], [[2.0**52], [2.0**52 - 1, 1.0]],
     [[1 / 3], [2.0**-30, 2.0**-54]], [[1.7e308], [1.7e308, 1.7e308]],
     [xs for xs in _FSUM_CASES if min(xs, default=0) >= 0]],
    ids=["total-below-2^53", "total-at-2^53", "scale-2^54", "sums-overflow", "fsum-cases"],
)
def test_unit_stake_scorer_rounds_each_period_as_fsum(trials, monkeypatch) -> None:
    # The block scorer sums in int64 while the block's unit total is below
    # 2**63, else in Python ints, and _over_scale divides one sum at a time
    # only where one reaches 2**1024; the fsum cases hold a subnormal cost
    # (scale 2**1074). Either way each period's queue cost is run_trial's:
    # the fsum of the costs still waiting, and of those processed, or nan
    # where a sum leaves the float range.
    counts, costs, cum, served = _one_a_period(trials)
    calls, or_nan = [], simulate._or_nan

    def counted(f, *args):
        calls.append(args)
        return or_nan(f, *args)

    monkeypatch.setattr(simulate, "_or_nan", counted)
    with np.errstate(over="ignore"):
        got = simulate._unit_streams(counts, costs, cum, served)
    assert bool(calls) == (max(simulate._exact_units(costs.tolist())[0], default=0) >= 2**1024)
    want = [[-_fsum_or_nan(xs[t:]) - _fsum_or_nan(xs[t - 1 : t]) if t <= len(xs) else -0.0
             for t in range(1, counts.shape[1] + 1)] for xs in trials]
    np.testing.assert_array_equal(got, want)


def test_unit_stake_scorer_sums_past_int64_in_python_ints() -> None:
    # Int64 sums convert correctly rounded, and a block whose unit total
    # reaches 2**63 sums in Python ints: period 1 leaves its total waiting,
    # 2**63 - 2**10 in the first block and 2**63 in the second.
    for trials in ([[0.0, 2.0**62, 2.0**62 - 2.0**10]], [[0.0, 2.0**62, 2.0**62]]):
        counts, costs, cum, served = _one_a_period(trials)
        want = [[-math.fsum(xs[t:]) - math.fsum(xs[t - 1 : t]) if t <= len(xs) else -0.0
                 for t in range(1, counts.shape[1] + 1)] for xs in trials]
        np.testing.assert_array_equal(simulate._unit_streams(counts, costs, cum, served), want)


def test_unit_stake_scorer_scores_only_the_trial_with_an_infinite_cost_nan() -> None:
    # Seed 4 alone of seeds 0-11 draws an infinite cost over four periods;
    # all twelve trials share one block, whose other trials keep run_trial's
    # values, and _summarize names seed 4.
    config = _flagship(Mechanism.minslack(), steps=4, trials=12, values=Pareto(0.005, 1.0))
    assert not _fastlane_eligible(config)
    assert config.trials <= simulate._UNIT_CELLS // config.steps
    ((_, _, scores),) = simulate._unit_blocks(config)
    with np.errstate(over="ignore", invalid="ignore"):
        got = list(scores)
    want = _object_values(config)
    assert [seed for seed, v in enumerate(got) if math.isnan(v)] == [4]
    assert got[:4] + got[5:] == want[:4] + want[5:]
    assert math.isinf(want[4])
    with pytest.raises(ConfigError, match="leaves it at seed 4$"):
        monte_carlo(config)


def test_monte_carlo_runs_mechanisms_without_run_trial(monkeypatch) -> None:
    def refuse(config, seed):
        raise AssertionError("run_trial called")

    config = _flagship(Mechanism.minslack(), steps=40, trials=3, metric="steady-state",
                       discount=None, burn_in=5)
    optimal = _flagship(_flagship_optimal(), steps=40, trials=3)
    want = _object_values(config)
    want_optimal = _object_values(optimal)
    monkeypatch.setattr(simulate, "run_trial", refuse)
    assert not _fastlane_eligible(config)
    assert list(monte_carlo(config).values) == want
    assert list(monte_carlo(optimal).values) == want_optimal


def test_monte_carlo_builds_no_exit_request(monkeypatch) -> None:
    # Costs are checked once, by SimulationConfig; neither engine builds a
    # validated ExitRequest per draw.
    runs = [(m, v) for m in _UNIT_MECHANISMS for v in (FLAGSHIP_VALUES, Pareto(2.0, 5.0))]
    configs = [
        _flagship(mech, steps=40, trials=3, values=values, metric=metric, discount=discount,
                  burn_in=0 if discount else 5)
        for metric, discount in (("discounted", 0.9), ("steady-state", None))
        for mech, values in runs
    ]
    configs.append(_flagship(_flagship_optimal(), steps=40, trials=3))
    want = [_object_values(c) for c in configs]

    def refuse(self):
        raise AssertionError("ExitRequest built")

    monkeypatch.setattr(ExitRequest, "__post_init__", refuse)
    assert [list(monte_carlo(c).values) for c in configs] == want
    assert any(_fastlane_eligible(c) for c in configs)
    assert not all(_fastlane_eligible(c) for c in configs)


def test_unit_stake_engine_takes_its_order_from_by_cost_desc(monkeypatch) -> None:
    config = SimulationConfig(
        constraints=ConstraintSet([Constraint(3, 4)]),
        mechanism=Mechanism.prio_minslack(),
        arrival_counts=FLAGSHIP_COUNTS,
        values=Pareto(2.0, 5.0),
        steps=200,
        trials=2,
        metric="steady-state",
        burn_in=20,
    )
    costliest_first = _unit_stake_values(config, monkeypatch)

    def cheapest_first(waiting, sort_key):
        return sorted(mechanisms._fcfs(waiting), key=lambda r: r.cost)

    monkeypatch.setattr(mechanisms, "_by_cost_desc", cheapest_first)
    got = _unit_stake_values(config, monkeypatch)
    assert got != costliest_first
    assert got == _object_values(config)
    assert list(monte_carlo(config).values) == got


def test_unit_stake_engine_follows_the_ranking_not_the_costs(monkeypatch) -> None:
    # With one cost level the ranking is the arrival order. The engine must
    # serve by the ranking, not by the costs: under a last-come-first-served
    # ranking the same costs serve in another order, as select does.
    config = _flagship(Mechanism.prio_minslack(), steps=200, trials=3,
                       values=Discrete((1.0,), (1.0,)), metric="steady-state", discount=None,
                       burn_in=20)
    fcfs = _object_values(replace(config, mechanism=Mechanism.minslack()))

    def last_first(waiting, sort_key):
        return list(reversed(waiting))

    monkeypatch.setattr(mechanisms, "_by_cost_desc", last_first)
    got = list(monte_carlo(config).values)
    assert got == _object_values(config)
    assert got != fcfs


def _naive_unit_order(order: str, counts: list[int], costs: np.ndarray,
                      cum: list[int]) -> list[int]:
    """The order pass replayed with no heap: each period sorts its waiting
    list, in arrival order, through _by_cost_desc and serves its count."""
    arrivals = [simulate._Arrival(c, 0.0, i) for i, c in enumerate(costs.tolist())]
    waiting, served, pos = [], [], 0
    for arrived, done, later in zip(counts, cum, cum[1:]):
        waiting += arrivals[pos : pos + arrived]
        pos += arrived
        taken = mechanisms._by_cost_desc(waiting, order)[: later - done]
        served += [a.index for a in taken]
        waiting = [a for a in waiting if a not in taken]
    return served


def _random_takes(rng: np.random.Generator, counts: list[int]) -> list[int]:
    """Cumulative counts that serve 0..3 of the waiting each period."""
    cum = [0]
    for came in np.cumsum(counts).tolist():
        cum.append(cum[-1] + int(rng.integers(0, min(came - cum[-1], 3) + 1)))
    return cum


def test_unit_order_serves_as_a_replay_without_a_heap() -> None:
    # Hand-made periods, one per branch of the heap replay:
    #   1: two arrivals, no exit;
    #   2: one arrival that outranks the heap top (5.0 over 3.0), one exit;
    #   3: one arrival tied with the top (3.0), which leaves first, one exit;
    #   4: one arrival below the top (2.0), one exit;
    #   5: an exit with no arrival;  6 and 10: idle;
    #   7: five arrivals, two of them tied (4.0), three exits;
    #   8: one arrival, no exit;  9: two exits, no arrival.
    costs = np.array([3.0, 1.0, 5.0, 3.0, 2.0, 4.0, 0.5, 4.0, 6.0, 0.0, 7.0])
    counts = [2, 1, 1, 1, 0, 0, 5, 1, 0, 0]
    cum = [0, 0, 1, 2, 3, 4, 4, 7, 7, 9, 9]
    cost_order = [2, 0, 3, 4, 8, 5, 7, 10, 1]
    assert _naive_unit_order("cost", counts, costs, cum) == cost_order
    assert simulate._unit_order("cost", counts, costs, cum).tolist() == cost_order
    assert simulate._unit_order("bid", counts, costs, cum).tolist() == list(range(9))
    # Seeded trials: tie-heavy costs, and heavy-tailed ones.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        counts = rng.choice([0, 1, 5], size=200, p=[0.5, 0.4, 0.1]).tolist()
        cum = _random_takes(rng, counts)
        size = sum(counts)
        for costs in (rng.choice([0.0, 1.0, 2.5, math.inf], size=size),
                      rng.pareto(2.0, size=size)):
            for order in ("cost", "bid"):
                want = _naive_unit_order(order, counts, costs, cum)
                assert simulate._unit_order(order, counts, costs, cum).tolist() == want, seed


def test_both_engines_raise_where_run_trial_does() -> None:
    # An absolute run that processes more than its initial stake, on either
    # engine: minslack runs the unit-stake engine, prio-minslack and the
    # optimal policy the count engine.
    for mechanism in (Mechanism.minslack(), Mechanism.prio_minslack(), _flagship_optimal()):
        config = _flagship(mechanism, steps=40, trials=3, initial_stake=3)
        assert _fastlane_eligible(config) == (mechanism.order == "cost"), mechanism.name
        with pytest.raises(ConfigError, match="stake_history entries must be nonnegative"):
            run_trial(config, 0)
        with pytest.raises(ConfigError, match="stake_history entries must be nonnegative"):
            monte_carlo(config)
        # A stake no trial uses up changes nothing.
        ample = replace(config, initial_stake=1_000)
        assert list(monte_carlo(ample).values) == _object_values(ample), mechanism.name
    quiet = replace(_flagship(Mechanism.minslack(), steps=40, metric="steady-state", discount=None),
                    arrival_counts=Discrete((0,), (1.0,)))
    with pytest.raises(NoWithdrawals):
        monte_carlo(quiet)


@pytest.mark.parametrize(
    ("make", "metric", "count_engine"),
    [(_flagship_optimal, "discounted", True), (Mechanism.prio_minslack, "discounted", True),
     (Mechanism.minslack, "discounted", False), (Mechanism.prio_minslack, "steady-state", False)],
    ids=["optimal", "prio-minslack", "minslack", "prio-minslack-steady-state"],
)
def test_each_engine_draws_each_trial_once_through_draw_arrivals(make, metric, count_engine,
                                                                 monkeypatch) -> None:
    # One routine draws every trial's arrivals, once per trial in seed order,
    # whichever engine runs; blocks of four trials cross a block boundary.
    config = _flagship(make(), steps=40, trials=10, seed=11, metric=metric,
                       discount=0.9 if metric == "discounted" else None,
                       burn_in=0 if metric == "discounted" else 5)
    want = _object_values(config)
    draw, seeds = simulate._draw_arrivals, []

    def recorded(rng, *args):
        seeds.append(rng.bit_generator.seed_seq.entropy)
        return draw(rng, *args)

    monkeypatch.setattr(simulate, "_draw_arrivals", recorded)
    monkeypatch.setattr(simulate, "_BLOCK_CELLS", 4 * config.steps)
    assert _fastlane_eligible(config) == count_engine
    assert list(monte_carlo(config).values) == want
    assert seeds == list(range(11, 21))


def _first_seed_beyond_floats(config: SimulationConfig) -> int | None:
    """The first seed whose run_trial metric overflows or is not finite."""
    for seed in range(config.seed, config.seed + config.trials):
        try:
            (value,) = _object_values(replace(config, seed=seed, trials=1))
        except OverflowError:
            return seed
        if not math.isfinite(value):
            return seed
    return None


@pytest.mark.parametrize("metric", ["discounted", "steady-state"])
@pytest.mark.parametrize("mechanism", [Mechanism.minslack(), Mechanism.prio_minslack()],
                         ids=lambda m: m.name)
@pytest.mark.parametrize(
    ("values", "seed"),
    [(Discrete((1e308, 1.7e308), (0.5, 0.5)), 5), (Pareto(0.005, 1.0), 5),
     (Exponential(1e-307), 5), (Pareto(0.005, 1.0), 40)],
    ids=["sums-overflow", "pareto-draws-inf", "exponential-near-max", "stderr-overflows"],
)
def test_monte_carlo_names_the_first_seed_beyond_the_float_range(
    values, seed, mechanism, metric
) -> None:
    # prio-minslack on the two-point discounted case runs the count engine.
    config = _flagship(mechanism, steps=12, trials=6, seed=seed, values=values, metric=metric,
                       discount=0.9 if metric == "discounted" else None,
                       burn_in=0 if metric == "discounted" else 2)
    with np.errstate(over="ignore", invalid="ignore"):
        first = _first_seed_beyond_floats(config)
    where = f"at seed {first}$" if first is not None else f"in the stderr of seeds {seed}-"
    with pytest.raises(ConfigError, match="values must draw costs whose sums stay in the float "
                       f"range; .* leaves it {where}"):
        monte_carlo(config)


@pytest.mark.parametrize("block", [1, 7, 100], ids=lambda b: f"block{b}")
def test_count_engine_runs_the_same_in_any_block_of_trials(block, monkeypatch) -> None:
    # The count engine runs one block of trials at a time. Blocks of one
    # trial, of seven, or of more than the run has give run_trial's values,
    # and name the same seed for an audit or a sum beyond the float range.
    def in_blocks(config: SimulationConfig) -> MonteCarloSummary:
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", block * config.steps)
        return monte_carlo(config)

    for mechanism in (_flagship_optimal(), Mechanism.prio_minslack()):
        config = _flagship(mechanism, steps=60, trials=20, seed=3)
        assert list(in_blocks(config).values) == _object_values(config), mechanism.name
    tampered = _flagship(_greedy_tampered(), steps=5, trials=10)
    with pytest.raises(FeasibilityViolation,
                       match=f"infeasible trace at seed {_first_greedy_breach(tampered)}:"):
        in_blocks(tampered)
    # Over three periods seeds 2 and 3 stay in the float range, so the
    # first seed beyond it is not the run's first.
    overflow = _flagship(Mechanism.prio_minslack(), steps=3, trials=12, seed=2,
                         values=Discrete((1e308, 1.7e308), (0.5, 0.5)))
    with np.errstate(over="ignore", invalid="ignore"):
        first = _first_seed_beyond_floats(overflow)
    assert first > overflow.seed
    with pytest.raises(ConfigError, match=r"values must draw costs whose sums stay in the "
                       rf"float range; .* leaves it at seed {first}$"):
        in_blocks(overflow)


@pytest.mark.parametrize("block", [1, 7, 100], ids=lambda b: f"block{b}")
def test_unit_stake_engine_runs_the_same_in_any_block_of_trials(block, monkeypatch) -> None:
    # The unit-stake engine runs one block of trials at a time too. Blocks of
    # one trial, of seven, or of more than the run has give run_trial's
    # values under either metric and mode, and name the same seed for an
    # audit breach or a sum beyond the float range.
    def in_blocks(config: SimulationConfig) -> MonteCarloSummary:
        monkeypatch.setattr(simulate, "_UNIT_CELLS", block * config.steps)
        return monte_carlo(config)

    monkeypatch.setattr(simulate, "_fastlane_eligible", lambda config: False)
    for label in ("absolute", "fraction"):
        constraints, stake = _UNIT_CONSTRAINTS[label]
        for metric, discount in (("discounted", 0.9), ("steady-state", None)):
            def run(mechanism, **kw) -> SimulationConfig:
                config = _flagship(mechanism, metric=metric, discount=discount, **kw)
                return replace(config, constraints=constraints, initial_stake=stake)

            for mechanism, values in ((Mechanism.minslack(), FLAGSHIP_VALUES),
                                      (Mechanism.prio_minslack(), Uniform(0.0, 1.0))):
                config = run(mechanism, steps=60, trials=20, seed=3, values=values)
                assert list(in_blocks(config).values) == _object_values(config), (label, metric)
            # Over four periods seed 0 keeps its windows at a capacity one
            # above the slack, and seeds 2 and 3 stay in the float range.
            tampered = run(Mechanism.prio_minslack(), steps=4, trials=10)
            with monkeypatch.context() as m:
                m.setattr(Mechanism, "capacity", lambda self, slack: slack + 1)
                first = _first_seed_run_trial_refuses(tampered)
                assert first > tampered.seed
                with pytest.raises(FeasibilityViolation, match=f"at seed {first}:"):
                    in_blocks(tampered)
            overflow = run(Mechanism.minslack(), steps=4, trials=12, seed=2,
                           values=Discrete((1e308, 1.7e308), (0.5, 0.5)))
            with np.errstate(over="ignore", invalid="ignore"):
                first = _first_seed_beyond_floats(overflow)
            assert first > overflow.seed
            with pytest.raises(ConfigError, match=r"values must draw costs whose sums stay in "
                               rf"the float range; .* leaves it at seed {first}$"):
                in_blocks(overflow)
    # Seed 20 draws nothing over three periods, and seed 21 exits more than
    # the stake. A block of one scores seed 20 before it reaches seed 21; a
    # larger block checks the stake of both before it scores either.
    quiet_then_over = _flagship(Mechanism.minslack(), steps=3, trials=2, seed=20,
                                metric="steady-state", discount=None, initial_stake=1)
    with pytest.raises(NoWithdrawals if block == 1 else ConfigError,
                       match="no withdrawals" if block == 1 else "stake_history"):
        in_blocks(quiet_then_over)


def _first_seed_run_trial_refuses(config: SimulationConfig) -> int:
    """The first seed whose run_trial refuses what its mechanism selects."""
    for seed in range(config.seed, config.seed + config.trials):
        try:
            run_trial(config, seed)
        except InfeasibleProcessing:
            return seed
    raise AssertionError("every trial keeps its windows")


@pytest.mark.parametrize(
    ("make", "steps", "trials", "block"),
    [(Mechanism.prio_minslack, 80, 200, 64), (Mechanism.minslack, 400, 50, None)],
    ids=["count", "unit-stake"],
)
def test_engine_memory_does_not_grow_with_the_trial_count(make, steps, trials, block,
                                                          monkeypatch) -> None:
    # Four times the trials run in the same memory. The count engine runs
    # blocks of 64 trials here; one that holds every trial at once traces
    # about 3.5 times the peak. The unit-stake engine runs blocks of
    # _UNIT_CELLS // steps trials (10 at 400 steps); one that held every
    # trial at once would trace about 4 times the peak.
    if block is not None:
        monkeypatch.setattr(simulate, "_BLOCK_CELLS", block * steps)

    def traced_peak(trials: int) -> int:
        return _traced_peak(_flagship(make(), steps=steps, trials=trials))[1]

    traced_peak(2)  # first-call allocations are not the run's
    assert traced_peak(4 * trials) <= 1.25 * traced_peak(trials)


def test_unit_stake_engine_audits_a_capacity_that_breaks_its_window(monkeypatch) -> None:
    # A capacity map one above the slack overfills the window; the audit
    # names the first trial it breaks, under either metric and mode.
    monkeypatch.setattr(Mechanism, "capacity", lambda self, slack: slack + 1)
    for constraints, stake in _UNIT_CONSTRAINTS.values():
        for metric, discount in (("discounted", 0.9), ("steady-state", None)):
            config = replace(_flagship(Mechanism.prio_minslack(), trials=1, seed=7, metric=metric,
                                       discount=discount),
                             constraints=constraints, initial_stake=stake)
            with pytest.raises(FeasibilityViolation, match="infeasible trace at seed 7:"):
                _unit_stake_values(config, monkeypatch)


# stake x numerator = 2**63 - 1 is the largest the int64 capacities take;
# 2**63 takes Python ints, which the strategy's stakes never reach.
@example(totals=[6, 0, 6], windows=[(7, 2)], fraction=True, stake=(2**63 - 1) // 7, others=[])
@example(totals=[6, 0, 6], windows=[(1, 2)], fraction=True, stake=2**63, others=[])
@given(
    totals=st.lists(st.integers(0, 6), min_size=1, max_size=12),
    windows=st.lists(st.tuples(st.integers(0, 8), st.integers(1, 5)), min_size=1, max_size=3),
    fraction=st.booleans(),
    stake=st.integers(0, 80),
    others=st.lists(st.lists(st.integers(0, 6), min_size=12, max_size=12), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_unit_audit_agrees_with_check_trace_feasible(totals, windows, fraction, stake,
                                                     others) -> None:
    if fraction:
        cs = ConstraintSet([Constraint(Fraction(d, 8), w) for d, w in windows], _FRACTION)
    else:
        cs = ConstraintSet([Constraint(d, w) for d, w in windows])
    cum = np.concatenate([[0], np.cumsum(totals)])
    config = SimulationConfig(
        constraints=cs,
        mechanism=Mechanism.minslack(),
        arrival_counts=FLAGSHIP_COUNTS,
        values=FLAGSHIP_VALUES,
        steps=len(totals),
        discount=0.9,
        initial_stake=stake,
    )
    history = [stake - int(c) for c in cum]
    if check_trace_feasible(totals, history, cs):
        _unit_audit(cum, config, 0)
    else:
        with pytest.raises(FeasibilityViolation):
            _unit_audit(cum, config, 0)

    # Stacked trials at seeds 0, 1, ...: the audit raises iff some row fails,
    # and names the first failing row's seed.
    rows = [totals] + [o[: len(totals)] for o in others]
    stacked = np.stack([np.concatenate([[0], np.cumsum(r)]) for r in rows])
    ok = [check_trace_feasible(r, [stake - int(c) for c in row], cs)
          for r, row in zip(rows, stacked)]
    if all(ok):
        _unit_audit(stacked, config, 0)
    else:
        with pytest.raises(FeasibilityViolation, match=f"at seed {ok.index(False)}:"):
            _unit_audit(stacked, config, 0)


# =============================================================
# Histogram
# =============================================================


def test_histogram_alignment_and_normalization() -> None:
    values = [-0.25, -0.2, -0.05, 0.0, 0.13, 0.19]
    bins = make_histogram(values, bin_width=0.1)
    assert [b.left for b in bins] == pytest.approx([-0.3, -0.2, -0.1, 0.0, 0.1])
    assert all(b.right == pytest.approx(b.left + 0.1) for b in bins)
    assert sum(b.count for b in bins) == len(values)
    assert sum(b.density * 0.1 for b in bins) == pytest.approx(1.0, abs=1e-9)
    assert all(math.isfinite(b.log_density) for b in bins)
    assert all(b.log_density == pytest.approx(math.log(b.density)) for b in bins)


def test_histogram_rejects_bad_input() -> None:
    with pytest.raises(ConfigError):
        make_histogram([], 0.1)
    with pytest.raises(ConfigError):
        make_histogram([1.0], 0.0)
    # No int64 bin index, edges that collapse or overflow, a density beyond
    # the float range, a value that is not finite: each would print a bin
    # that is wrong.
    for values, width in [
        ([1.0, 2.0, -3.5], 1e-300),
        ([1.0, 2.0], 1e-17),
        ([1.7e308], 1e308),
        ([0.0], 5e-324),
        ([1.0, math.nan], 0.1),
        ([1.0, math.inf], 0.1),
        ([1.0], math.inf),
    ]:
        with pytest.raises(ConfigError, match=re.escape(f"bin width {width} ")):
            make_histogram(values, width)
    assert [b.right for b in make_histogram([1.0, 2.0], 1e300)] == [1e300]


# =============================================================
# Schedule enumeration
# =============================================================


def test_brute_force_without_requests_is_all_zero() -> None:
    assert brute_force_schedules([], ABS_25, horizon=3) == [(0, 0, 0)]


def test_brute_force_enumerates_the_square() -> None:
    cs = ConstraintSet([Constraint(1, 1)])
    reqs = [ExitRequest("a", 1, 1.0), ExitRequest("b", 1, 1.0)]
    got = set(brute_force_schedules(reqs, cs, horizon=2))
    assert got == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_brute_force_schedules_are_feasible_and_stock_limited() -> None:
    cs = ConstraintSet([Constraint(2, 3), Constraint(1, 1)])
    reqs = [ExitRequest(f"v{i}", 1, 1.0) for i in range(3)] + [
        ExitRequest("late", 3, 1.0)
    ]
    schedules = brute_force_schedules(reqs, cs, horizon=5)
    arrived = np.cumsum([3, 0, 1, 0, 0])
    for s in schedules:
        assert check_trace_feasible(s, None, cs)
        assert np.all(np.cumsum(s) <= arrived)
    # Every feasible vector is found: spot-check one interior schedule.
    assert (1, 0, 1, 0, 1) in schedules


def test_brute_force_validates_input() -> None:
    with pytest.raises(ConfigError):
        brute_force_schedules([], ABS_25, horizon=0)
    frac = ConstraintSet([Constraint("0.5", 2)], ConstraintMode.FRACTION_OF_STAKE)
    with pytest.raises(ConfigError):
        brute_force_schedules([], frac, horizon=2)
    heavy = [ExitRequest("x", 1, 1.0, stake=2)]
    with pytest.raises(ConfigError):
        brute_force_schedules(heavy, ABS_25, horizon=2)


# =============================================================
# Config validation and the feasibility audit
# =============================================================


def test_config_validation() -> None:
    good = dict(
        constraints=ABS_25,
        mechanism=Mechanism.minslack(),
        arrival_counts=FLAGSHIP_COUNTS,
        values=FLAGSHIP_VALUES,
        steps=10,
        discount=0.9,
    )
    SimulationConfig(**good)
    with pytest.raises(ConfigError):
        SimulationConfig(**{**good, "steps": 0})
    with pytest.raises(ConfigError):
        SimulationConfig(**{**good, "trials": 0})
    with pytest.raises(ConfigError):
        SimulationConfig(**{**good, "burn_in": 10})
    with pytest.raises(ConfigError, match="burn_in applies to the steady-state metric only"):
        SimulationConfig(**{**good, "burn_in": 1})
    with pytest.raises(ConfigError, match="discount applies to the discounted metric only"):
        SimulationConfig(**{**good, "metric": "steady-state"})
    SimulationConfig(**{**good, "metric": "steady-state", "discount": None, "burn_in": 1})
    with pytest.raises(ConfigError):
        SimulationConfig(**{**good, "metric": "mean"})
    with pytest.raises(ConfigError):
        SimulationConfig(**{**good, "discount": None})
    with pytest.raises(ConfigError):
        SimulationConfig(**{**good, "discount": 1.0})
    with pytest.raises(ConfigError):
        SimulationConfig(**{**good, "arrival_counts": Uniform(0, 1)})
    with pytest.raises(ConfigError):
        SimulationConfig(**{**good, "arrival_counts": Discrete((0.5, 1), (0.5, 0.5))})
    frac = ConstraintSet([Constraint("0.1", 4)], ConstraintMode.FRACTION_OF_STAKE)
    with pytest.raises(ConfigError):
        SimulationConfig(**{**good, "constraints": frac})
    with pytest.raises(ConfigError, match="seed"):
        SimulationConfig(**{**good, "seed": -1})
    with pytest.raises(ConfigError, match="initial_stake"):
        SimulationConfig(**{**good, "initial_stake": -1})
    for values in (
        Discrete((-1, 10), (0.9, 0.1)),
        Discrete((1, math.nan), (0.9, 0.1)),
        Discrete((1, math.inf), (0.9, 0.1)),
        Uniform(-1.0, 1.0),
        Uniform(0.0, math.inf),
        Exponential(math.nan),
        Exponential(math.inf),
        Exponential(5e-324),
        Pareto(math.nan, 5.0),
        Pareto(2.0, math.inf),
    ):
        with pytest.raises(ConfigError, match="values must draw finite nonnegative costs"):
            SimulationConfig(**{**good, "values": values})


_MECHS = [
    Mechanism.minslack(),
    Mechanism.prio_minslack(),
    Mechanism.alpha_minslack("0.7"),
    Mechanism.constant(2),
    Mechanism.constant(1, sort_key="fcfs"),
]


@given(
    mech=st.sampled_from(_MECHS),
    delta=st.integers(1, 4),
    window=st.integers(1, 5),
    seed=st.integers(0, 10_000),
    heavy_tail=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_random_configs_produce_feasible_nonpositive_scores(
    mech, delta, window, seed, heavy_tail
) -> None:
    values = Exponential(0.5) if heavy_tail else FLAGSHIP_VALUES
    config = SimulationConfig(
        constraints=ConstraintSet([Constraint(delta, window)]),
        mechanism=mech,
        arrival_counts=FLAGSHIP_COUNTS,
        values=values,
        steps=25,
        trials=2,
        seed=seed,
        discount=0.9,
    )
    summary = monte_carlo(config)
    assert all(v <= 0 for v in summary.values)
    for i in range(config.trials):
        r = run_trial(config, seed + i)
        assert check_trace_feasible(r.trace, None, config.constraints)
