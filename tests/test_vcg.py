"""Externality payments under the solved policy.

The no-externality and single-displacement cases have exact answers: the
estimator shares arrival randomness across both counterfactual branches, so
the difference collapses to 0 when the agent displaces nobody, and a
deterministic model is evaluated in closed form rather than sampled.
"""

from __future__ import annotations

import pytest

from exitqueue.core import ExitRequest
from exitqueue.errors import ConfigError, ModelMismatch, UnknownRequest
from exitqueue.mdp import (
    ArrivalModel,
    build_model,
    value_iteration,
    vcg_estimate,
)

QUIET = ArrivalModel(((0, 1.0),), 0.0, 1.0, 10.0)
SPARSE = ArrivalModel(((0, 0.9), (1, 0.1)), 0.1, 1.0, 10.0)


def _policy(model, cap, budget, window, gamma=0.9):
    return value_iteration(build_model(model, cap, budget, window, gamma), tolerance=1e-9)


def test_lone_agent_pays_zero_exactly() -> None:
    # Window 1 leaves no history, so removing a lone agent changes nothing
    # for anyone else; shared arrival draws cancel exactly.
    policy = _policy(SPARSE, cap=4, budget=2, window=1)
    agent = ExitRequest("solo", 1, 10.0)
    est = vcg_estimate(policy, [[agent]], agent, SPARSE, samples=200, seed=7)
    assert est.payment == 0.0
    assert est.raw_mean == 0.0
    assert not est.exact


def test_displacing_one_low_request_pays_its_period_cost() -> None:
    # Budget (1,1): the high agent is served first and the low request
    # waits exactly one extra period, so the externality is 1 * gamma^0.
    policy = _policy(QUIET, cap=4, budget=1, window=1)
    agent = ExitRequest("whale", 1, 10.0)
    bystander = ExitRequest("minnow", 1, 1.0)
    est = vcg_estimate(policy, [[bystander, agent]], agent, QUIET)
    assert est.exact
    assert est.stderr == 0.0
    assert est.payment == 1.0


def test_displacement_under_random_arrivals_stays_near_one() -> None:
    policy = _policy(SPARSE, cap=6, budget=1, window=1)
    agent = ExitRequest("whale", 1, 10.0)
    bystander = ExitRequest("minnow", 1, 1.0)
    est = vcg_estimate(policy, [[bystander, agent]], agent, SPARSE, samples=4000, seed=3)
    assert not est.exact
    assert est.stderr > 0.0
    # New arrivals can only add to the displaced request's wait.
    assert est.payment >= 1.0 - 3 * est.stderr
    assert abs(est.payment - 1.0) < 0.2


def test_estimates_are_seeded_and_reproducible() -> None:
    policy = _policy(SPARSE, cap=6, budget=1, window=1)
    agent = ExitRequest("whale", 1, 10.0)
    bystander = ExitRequest("minnow", 1, 1.0)
    a = vcg_estimate(policy, [[bystander, agent]], agent, SPARSE, samples=500, seed=1)
    b = vcg_estimate(policy, [[bystander, agent]], agent, SPARSE, samples=500, seed=1)
    c = vcg_estimate(policy, [[bystander, agent]], agent, SPARSE, samples=500, seed=2)
    assert a == b
    assert a.raw_mean != c.raw_mean
    assert abs(a.raw_mean - c.raw_mean) < 6 * max(a.stderr, c.stderr)


def test_payment_is_clamped_nonnegative() -> None:
    policy = _policy(SPARSE, cap=6, budget=1, window=1)
    agent = ExitRequest("solo", 1, 1.0)
    est = vcg_estimate(policy, [[agent]], agent, SPARSE, samples=300, seed=5)
    assert est.payment >= 0.0


def test_replay_traces_the_queue_to_the_agent() -> None:
    # The agent arrives at period 2; the period-1 request is processed
    # before the counterfactual starts, so the payment matches the case
    # where the agent shares the queue with nobody.
    policy = _policy(QUIET, cap=4, budget=1, window=1)
    early = ExitRequest("early", 1, 10.0)
    agent = ExitRequest("late", 2, 10.0)
    est = vcg_estimate(policy, [[early], [agent]], agent, QUIET)
    assert est.exact
    assert est.payment == 0.0


def test_trajectory_validation() -> None:
    policy = _policy(QUIET, cap=4, budget=1, window=1)
    agent = ExitRequest("whale", 1, 10.0)
    with pytest.raises(UnknownRequest):
        vcg_estimate(policy, [[ExitRequest("other", 1, 1.0)]], agent, QUIET)
    twin = ExitRequest("whale", 1, 1.0)
    with pytest.raises(ModelMismatch):
        vcg_estimate(policy, [[twin]], agent, QUIET)
    with pytest.raises(ModelMismatch, match="agent whale appears twice"):
        vcg_estimate(policy, [[agent], [agent]], agent, QUIET)
    misdated = ExitRequest("whale", 3, 10.0)
    with pytest.raises(ModelMismatch):
        vcg_estimate(policy, [[misdated]], misdated, QUIET)
    # Deterministic models ignore the sample count; stochastic ones need >= 1.
    assert vcg_estimate(policy, [[agent]], agent, QUIET, samples=0).samples == 1
    stochastic_policy = _policy(SPARSE, cap=4, budget=1, window=1)
    with pytest.raises(ConfigError):
        vcg_estimate(stochastic_policy, [[agent]], agent, SPARSE, samples=0)


def test_deterministic_rollout_is_checked_against_the_value_function() -> None:
    # Solved for two low arrivals a period but priced under none: the
    # without-agent rollout stays at 0, and the value function does not.
    busy = ArrivalModel(((2, 1.0),), 0.0, 1.0, 10.0)
    policy = _policy(busy, cap=4, budget=1, window=1)
    agent = ExitRequest("whale", 1, 10.0)
    with pytest.raises(ModelMismatch, match="disagrees with the value function"):
        vcg_estimate(policy, [[agent]], agent, QUIET)


# Recorded before the payment rollouts were rewritten as one array of both
# branches; every field must stay bit for bit. The cases reach what the
# window-1 tests above do not: window history, several arrival periods,
# a stochastic count distribution with Binomial class splits, and a
# deterministic model that saturates its cap.
PIN_STOCHASTIC = ArrivalModel(((0, 0.5), (1, 0.4), (5, 0.1)), 0.1, 1.0, 10.0)
PIN_TRAJECTORY = [
    [ExitRequest(f"lo{t}", t, 1.0), ExitRequest(f"hi{t}", t, 10.0)] for t in (1, 2, 3)
]
PIN_STOCHASTIC_ESTIMATES = {
    ("lo1", 0): (1.3519971206697399, 0.057141025889412396),
    ("lo1", 1): (1.4494788496241418, 0.05876599501106218),
    ("hi1", 0): (1.3519971206697399, 0.057141025889412396),
    ("hi1", 1): (1.4494788496241418, 0.05876599501106218),
    ("lo2", 0): (2.2346898765793335, 0.05783595958671633),
    ("lo2", 1): (2.2204530029855243, 0.05608103611632263),
    ("hi2", 0): (4.160358776579334, 0.05834033822885417),
    ("hi2", 1): (4.151257032985525, 0.056705443415866495),
    ("lo3", 0): (3.5234473922739897, 0.055013606919224696),
    ("lo3", 1): (3.446722541730339, 0.053720588444235384),
    ("hi3", 0): (4.76982120957399, 0.06333466679116836),
    ("hi3", 1): (4.712065157730338, 0.06152631560383995),
}
PIN_DETERMINISTIC = ArrivalModel(((2, 1.0),), 1.0, 1.0, 10.0)
PIN_DETERMINISTIC_TRAJECTORY = [
    [ExitRequest("a1", 1, 10.0), ExitRequest("b1", 1, 10.0)],
    [ExitRequest("a2", 2, 10.0), ExitRequest("b2", 2, 1.0)],
    [ExitRequest("a3", 3, 10.0), ExitRequest("b3", 3, 10.0)],
]
PIN_DETERMINISTIC_ESTIMATES = {
    "a1": 47.36842104761604,
    "b1": 47.36842104761604,
    "a2": 89.9999999904702,
    "b2": 0.0,
    "a3": 99.99999999046747,
    "b3": 80.99999999046747,
}


def test_stochastic_estimates_match_recorded_values_bitwise() -> None:
    policy = _policy(PIN_STOCHASTIC, cap=6, budget=3, window=3)
    agents = {r.validator: r for batch in PIN_TRAJECTORY for r in batch}
    for (name, seed), (raw_mean, stderr) in PIN_STOCHASTIC_ESTIMATES.items():
        est = vcg_estimate(
            policy, PIN_TRAJECTORY, agents[name], PIN_STOCHASTIC, samples=3000, seed=seed
        )
        got = (est.raw_mean, est.stderr, est.payment, est.exact, est.samples)
        assert got == (raw_mean, stderr, max(0.0, raw_mean), False, 3000), (name, seed)


def test_deterministic_estimates_match_recorded_values_bitwise() -> None:
    policy = _policy(PIN_DETERMINISTIC, cap=5, budget=2, window=2)
    trajectory = PIN_DETERMINISTIC_TRAJECTORY
    for batch in trajectory:
        for agent in batch:
            est = vcg_estimate(policy, trajectory, agent, PIN_DETERMINISTIC)
            raw_mean = PIN_DETERMINISTIC_ESTIMATES[agent.validator]
            got = (est.raw_mean, est.stderr, est.payment, est.exact, est.samples)
            assert got == (raw_mean, 0.0, raw_mean, True, 1), agent.validator
