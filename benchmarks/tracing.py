"""Traced run of one workload: spans around the calls into each module.

A span records (name, start, end, parent) around one call from the
benchmark into a public exitqueue function; its layer is the module before
the first dot of its name. Spans stay in memory and are written to
.bench_runs/spans-<workload>-seed<n>.json when the run ends. A layer's self
time is its spans' durations minus the parts their child spans cover.

flagship traces load_experiment, build_transitions, value_iteration,
save_policy, load_policy and one monte_carlo call per mechanism, once with
spans and once without, and the difference is the tracing overhead.

steady-pareto and churn-fraction trace the flagship solve, then replay
run_trial's loop here: sample_arrival_schedule, then Mechanism.select and
core.step per period, then the score and the trace audit. Each replayed
trial must equal run_trial's result exactly, so the spans time the same
computation; run_trial itself, untraced, is the overhead's reference.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from exitqueue.cli import load_experiment
from exitqueue.core import QueueState, check_trace_feasible, step
from exitqueue.mdp import (
    ArrivalModel,
    MdpModel,
    OptimalMechanism,
    build_transitions,
    load_policy,
    save_policy,
    value_iteration,
)
from exitqueue.mechanisms import Mechanism
from exitqueue.simulate import (
    TrialResult,
    discounted_reward,
    monte_carlo,
    run_trial,
    sample_arrival_schedule,
    steady_state_disutility,
)

LAYERS = ("cli", "mdp", "simulate", "mechanisms", "core")

# Every per-layer metric and its unit. A layer or mechanism that a
# workload does not reach reports 0.
PER_LAYER = {
    "cli.load_experiment_ms": "ms",
    "mdp.build_transitions_s": "s",
    "mdp.transitions": "count",
    "mdp.value_iteration_s": "s",
    "mdp.sweeps": "count",
    "mdp.policy_write_s": "s",
    "mdp.load_policy_s": "s",
    **{f"simulate.monte_carlo_us_per_trial_step.{m}": "us" for m in ("optimal", "prio-minslack")},
    **{
        f"simulate.run_trial_us_per_step.{m}": "us"
        for m in ("constant-1", "minslack", "prio-minslack", "alpha-minslack-0.9")
    },
    "simulate.sample_arrival_schedule_us_per_trial": "us",
    "simulate.score_us_per_trial": "us",
    "mechanisms.select_us": "us",
    "core.step_us": "us",
    "core.step_us.early": "us",
    "core.step_us.late": "us",
    "core.check_trace_feasible_us_per_trial": "us",
    "core.waiting_len_mean": "count",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead_pct": "%",
}


def metric_suffix(mechanism_name: str) -> str:
    """'alpha-minslack(0.9)' -> 'alpha-minslack-0.9', a valid metric name."""
    return mechanism_name.replace("(", "-").rstrip(")")


class Tracer:
    """In-memory spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        if not self.enabled:
            return -1
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        if index >= 0:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name.split(".", 1)[0]] += end - start - child
        return out

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"self_s": self.self_times(), "spans": self.spans}), encoding="utf-8")


def mean_us(values: list[float]) -> float:
    return 1e6 * statistics.fmean(values) if values else 0.0


def mechanisms(spec, policy=None) -> list:
    """The config's mechanisms, built from the public constructors."""
    built = []
    for token in spec.mechanism_names:
        if token == "optimal":
            built.append(OptimalMechanism(policy, arrival_model(spec)))
        elif token == "minslack":
            built.append(Mechanism.minslack())
        elif token == "prio-minslack":
            built.append(Mechanism.prio_minslack(sort_key=spec.sort_key))
        elif token == "alpha-minslack":
            built.append(Mechanism.alpha_minslack(spec.alpha, sort_key=spec.sort_key))
        else:
            built.append(Mechanism.constant(spec.rate, sort_key=spec.constant_sort))
    return built


def arrival_model(spec) -> ArrivalModel:
    lo, hi = sorted(spec.values.points)
    return ArrivalModel(spec.arrival_counts.as_count_dist(), spec.policy.high_prob, lo, hi)


def solve_pass(tr: Tracer, config: Path):
    """Load, build, solve and write the policy of a config, as `solve` does."""
    s = tr.begin("cli.load_experiment")
    spec = load_experiment(config)
    tr.end(s)
    pol = spec.policy
    s = tr.begin("mdp.build_transitions")
    table = build_transitions(arrival_model(spec), pol.cap, pol.budget, pol.window)
    tr.end(s)
    s = tr.begin("mdp.value_iteration")
    policy = value_iteration(MdpModel(arrival_model(spec), spec.discount, table), pol.tolerance)
    tr.end(s)
    pol.path.parent.mkdir(parents=True, exist_ok=True)
    s = tr.begin("mdp.save_policy")
    save_policy(policy, pol.path)
    tr.end(s)
    return spec, table, policy


def flagship_pass(tr: Tracer, config: Path, trials: int, seed: int):
    spec, table, policy = solve_pass(tr, config)
    s = tr.begin("mdp.load_policy")
    loaded = load_policy(spec.policy.path)
    tr.end(s)
    spec = replace(spec, trials=trials, seed=seed)
    summaries = {}
    for mech in mechanisms(spec, loaded):
        s = tr.begin("simulate.monte_carlo")
        summaries[mech.name] = monte_carlo(spec.sim_config(mech))
        tr.end(s)
    return spec, table, policy, summaries


def traced_trial(tr: Tracer, config, seed: int, waiting: list[int]) -> tuple[TrialResult, int]:
    """run_trial's loop, with a span around each call; returns the result and its span."""
    trial = tr.begin("simulate.trial")
    rng = np.random.default_rng(seed)
    s = tr.begin("simulate.sample_arrival_schedule")
    schedule = sample_arrival_schedule(rng, config.steps, config.arrival_counts, config.values)
    tr.end(s)
    state = QueueState.initial(config.constraints, total_stake=config.initial_stake, arrivals=schedule[0])
    penalties: list[float] = []
    log = []
    for t in range(1, config.steps + 1):
        waiting.append(len(state.waiting))
        s = tr.begin("mechanisms.select")
        selected = config.mechanism.select(state)
        tr.end(s)
        chosen = {r.validator for r in selected}
        penalties.append(-math.fsum(r.cost for r in state.waiting if r.validator not in chosen))
        log.append(tuple((r, t - r.requested_at, r.cost) for r in selected))
        arrivals = schedule[t] if t < config.steps else ()
        s = tr.begin("core.step")
        state = step(state, arrivals, selected)
        tr.end(s)
    result = TrialResult(tuple(penalties), tuple(log), state.processed_totals, state)
    tr.end(trial)
    return result, trial


def object_pass(tally, tr: Tracer, workload, spec, exp, seed: int) -> dict[str, float]:
    """Replay every trial of one simulate call with spans; check each one."""
    metrics: dict[str, float] = {}
    waiting: list[int] = []
    early: list[float] = []
    late: list[float] = []
    traced = untraced = 0.0
    tenth = max(1, spec.steps // 10)
    for mech in mechanisms(spec):
        config = spec.sim_config(mech)
        run_s = 0.0
        for trial_seed in range(seed, seed + workload.trials):
            tally.attempted += 1
            start = time.perf_counter()
            want = run_trial(config, trial_seed)
            run_s += time.perf_counter() - start
            got, span = traced_trial(tr, config, trial_seed, waiting)
            traced += tr.spans[span][2] - tr.spans[span][1]
            steps = [e - b for n, b, e, _ in tr.spans[span:] if n == "core.step"]
            early += steps[:tenth]
            late += steps[-tenth:]

            s = tr.begin("simulate.score")
            if spec.metric == "steady-state":
                value = steady_state_disutility(got, spec.burn_in)
            else:
                value = discounted_reward(got, spec.discount)
            tr.end(s)
            s = tr.begin("core.check_trace_feasible")
            feasible = check_trace_feasible(got.trace, got.final_state.stake_history, spec.constraints)
            tr.end(s)

            label = f"{mech.name} trial {trial_seed}"
            if got != want:
                tally.problems.append(f"{label}: traced replay differs from run_trial")
            if not feasible:
                tally.problems.append(f"{label}: infeasible trace")
            expected = checks.trial_metric(exp, mech.name, trial_seed)
            if value != expected:
                tally.problems.append(f"{label}: score {value!r}, oracle {expected!r}")
        untraced += run_s
        key = f"simulate.run_trial_us_per_step.{metric_suffix(mech.name)}"
        metrics[key] = 1e6 * run_s / (workload.trials * spec.steps)

    metrics["simulate.sample_arrival_schedule_us_per_trial"] = mean_us(
        tr.durations("simulate.sample_arrival_schedule")
    )
    metrics["simulate.score_us_per_trial"] = mean_us(tr.durations("simulate.score"))
    metrics["mechanisms.select_us"] = mean_us(tr.durations("mechanisms.select"))
    metrics["core.step_us"] = mean_us(tr.durations("core.step"))
    metrics["core.step_us.early"] = mean_us(early)
    metrics["core.step_us.late"] = mean_us(late)
    metrics["core.check_trace_feasible_us_per_trial"] = mean_us(tr.durations("core.check_trace_feasible"))
    metrics["core.waiting_len_mean"] = statistics.fmean(waiting)
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return metrics


def solver_metrics(tr: Tracer, table, policy) -> dict[str, float]:
    return {
        "cli.load_experiment_ms": 1e3 * statistics.fmean(tr.durations("cli.load_experiment")),
        "mdp.build_transitions_s": sum(tr.durations("mdp.build_transitions")),
        "mdp.transitions": float(sum(at.src.size for at in table.by_action)),
        "mdp.value_iteration_s": sum(tr.durations("mdp.value_iteration")),
        "mdp.sweeps": float(policy.info.iterations),
        "mdp.policy_write_s": sum(tr.durations("mdp.save_policy")),
    }


def traced_run(workload, solver, seed: int, work: Path, tally) -> tuple[dict[str, float], Tracer]:
    """One traced pass of the workload: every per-layer metric, and the spans."""
    tr = Tracer()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    base = workload.base_seed(seed, 0)

    if workload.name == "flagship":
        start = time.perf_counter()
        flagship_pass(Tracer(enabled=False), workload.prepare(work / "untraced"), workload.trials, base)
        untraced = time.perf_counter() - start
        solve_config = workload.prepare(work / "traced")
        start = time.perf_counter()
        solve_spec, table, policy, summaries = flagship_pass(tr, solve_config, workload.trials, base)
        traced = time.perf_counter() - start
        tally.attempted += len(summaries)
        metrics["mdp.load_policy_s"] = sum(tr.durations("mdp.load_policy"))
        for name, span in zip(summaries, tr.durations("simulate.monte_carlo")):
            key = f"simulate.monte_carlo_us_per_trial_step.{metric_suffix(name)}"
            metrics[key] = 1e6 * span / (solve_spec.trials * solve_spec.steps)
        metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    else:
        solve_config = solver.prepare(work / "solve")
        solve_spec, table, policy = solve_pass(tr, solve_config)
    tally.attempted += 1
    metrics.update(solver_metrics(tr, table, policy))
    exp = checks.read_experiment(solve_config)
    policy_text = solve_spec.policy.path.read_text(encoding="ascii")
    tally.check("policy", checks.check_policy, policy_text, checks.TwoClassModel.from_experiment(exp))

    if workload.name == "flagship":
        means = checks.two_class_means(exp, policy_text, workload.trials, base)
        for name, summary in summaries.items():
            if abs(summary.mean - means[name]) > 1e-12 * abs(means[name]):
                tally.problems.append(f"{name}: mean {summary.mean!r}, oracle {means[name]!r}")
    else:
        config = workload.prepare(work / "trials")
        s = tr.begin("cli.load_experiment")
        spec = load_experiment(config)
        tr.end(s)
        metrics["cli.load_experiment_ms"] = 1e3 * statistics.fmean(tr.durations("cli.load_experiment"))
        spec = replace(spec, trials=workload.trials, seed=base)
        metrics.update(object_pass(tally, tr, workload, spec, checks.read_experiment(config), base))

    metrics.update({f"self_s.{layer}": v for layer, v in tr.self_times().items()})
    return metrics, tr
