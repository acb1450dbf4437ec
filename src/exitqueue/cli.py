"""Batch front-end: experiment configs in, CSV reports out.

Subcommands:
  solve        build the decision model from a config and write a policy file
  simulate     run the configured mechanisms and emit one CSV row per mechanism
  histogram    emit binned per-mechanism metric densities
  policy-diff  compare a policy file against the greedy slack-filling action
  verify       run fast built-in cross-checks of the core invariants

Config files are INI-style (configparser), one experiment per file; the
schema is documented in the README. Relative paths inside a config resolve
against the config file's directory, so bundled experiments run from any
working directory. Policy files referenced by `optimal` are solved and
cached on first use.

Exit codes: 0 success, 2 config problems, 3 solver non-convergence,
4 model mismatch, 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .core import (
    Constraint,
    ConstraintMode,
    ConstraintSet,
    ExitRequest,
    QueueState,
    check_trace_feasible,
    step,
)
from .distributions import (
    Discrete,
    ExpConvention,
    Exponential,
    Pareto,
    ParetoConvention,
    Uniform,
    ValueDistribution,
)
from .errors import (
    ConfigError,
    ExitQueueError,
    FeasibilityViolation,
    InvalidAlpha,
    ModelMismatch,
    NonConvergence,
    UnknownRequest,
)
from .mechanisms import Mechanism, alpha_capacity
from .mdp import (
    MAX_BUDGET,
    ArrivalModel,
    MdpModel,
    OptimalMechanism,
    Policy,
    StateSpace,
    action_values,
    build_model,
    load_policy,
    policy_text,
    save_policy,
    value_iteration,
)
from .simulate import METRICS, SimulationConfig, brute_force_schedules, make_histogram, monte_carlo

__all__ = ["main", "ExperimentSpec", "load_experiment"]

SIMULATE_HEADER = "mechanism,metric,mean,stderr,p001,p01,p50,trials,steps,gamma,seed"
HISTOGRAM_HEADER = "mechanism,bin_left,bin_right,count,density,log_density"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_MISMATCH = 4
EXIT_INVARIANT = 5


@dataclass(frozen=True)
class PolicySpec:
    """The [policy] section: model shape plus the cache location."""

    cap: int
    budget: int
    window: int
    tolerance: float
    high_prob: float
    path: Path


@dataclass(frozen=True)
class ExperimentSpec:
    """One parsed config file, ready to instantiate simulations."""

    name: str
    metric: str
    constraints: ConstraintSet
    arrival_counts: Discrete
    values: ValueDistribution
    steps: int
    trials: int
    seed: int
    discount: float | None
    burn_in: int
    initial_stake: int | None
    mechanism_names: tuple[str, ...]
    alpha: float
    rate: int
    sort_key: str
    constant_sort: str
    bin_width: float
    policy: PolicySpec | None

    def sim_config(self, mechanism) -> SimulationConfig:
        return SimulationConfig(
            constraints=self.constraints,
            mechanism=mechanism,
            arrival_counts=self.arrival_counts,
            values=self.values,
            steps=self.steps,
            trials=self.trials,
            seed=self.seed,
            metric=self.metric,
            discount=self.discount,
            burn_in=self.burn_in,
            initial_stake=self.initial_stake,
        )


_REQUIRED = object()


class _Config(configparser.ConfigParser):
    """A config file read as written (``%`` is plain text) that records each key _get reads."""

    def __init__(self) -> None:
        super().__init__(inline_comment_prefixes=(";", "#"), interpolation=None)
        self.seen: dict[str, set[str]] = {}


def _get(section: configparser.SectionProxy, key: str, parse=str, fallback=_REQUIRED):
    """``parse`` applied to ``[section] key``; any failure is a ConfigError
    that names the section and key."""
    section.parser.seen.setdefault(section.name, set()).add(key)
    raw = section.get(key)
    if raw is None:
        if fallback is _REQUIRED:
            raise ConfigError(f"[{section.name}] {key} is required")
        return fallback
    raw = raw.strip()
    try:
        return parse(raw)
    except (ValueError, ArithmeticError, ExitQueueError) as exc:
        raise ConfigError(f"[{section.name}] {key} = {raw!r}: {exc}") from None


def _pairs(raw: str) -> list[tuple[str, str]]:
    out = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ValueError(f"entries must look like value:prob, got {item!r}")
        lhs, rhs = item.split(":", 1)
        out.append((lhs.strip(), rhs.strip()))
    if not out:
        raise ValueError("must be nonempty")
    return out


def _discrete(point):
    """Parser of a ``value:prob, ...`` list whose values ``point`` converts."""
    return lambda raw: Discrete(*zip(*((point(v), float(p)) for v, p in _pairs(raw))))


def _checked(convert, ok, why: str):
    """Parser that converts a raw value and rejects it, saying ``why``,
    unless ``ok`` holds."""
    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(why)
        return value
    return parse


_finite = _checked(float, math.isfinite, "must be finite")
_positive = _checked(float, lambda x: 0 < x < math.inf, "must be positive and finite")


def _one_of(*allowed: str):
    return _checked(str, allowed.__contains__, f"must be one of {', '.join(allowed)}")


def _values_dist(section: configparser.SectionProxy) -> ValueDistribution:
    kinds = _one_of("discrete", "uniform", "exponential", "pareto")
    kind = _get(section, "kind", kinds, "discrete")
    if kind == "discrete":
        return _get(section, "points", _discrete(float))
    if kind == "uniform":
        return Uniform(_get(section, "lo", _finite, 0.0), _get(section, "hi", _finite, 1.0))
    if kind == "exponential":
        for key, convention in (("rate", ExpConvention.RATE), ("scale", ExpConvention.SCALE)):
            if key in section:  # a scale beside a rate goes unread, so it is refused
                return _get(section, key, lambda raw: Exponential(float(raw), convention))
        raise ConfigError("[values] exponential needs a rate or scale key")
    convention = _get(section, "convention", ParetoConvention, ParetoConvention.SHAPE_SCALE)
    return Pareto(_get(section, "shape", float), _get(section, "scale", float), convention)


def load_experiment(path: str | Path) -> ExperimentSpec:
    """Parse one config file. Every key is parsed and range-checked here,
    and every error names its section and key. The schema is what this
    reads: a section or key left unread is refused before any check across
    keys. The run's own fields are checked again by SimulationConfig."""
    path = Path(path)
    parser = _Config()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if parser.defaults():  # configparser would read its keys in every section
        raise ConfigError("unknown section [DEFAULT]")

    try:
        exp = parser["experiment"]
        name = _get(exp, "name", str, path.stem)
        metric = _get(exp, "metric", _one_of(*METRICS), "discounted")
        steps = _get(exp, "steps", int)
        trials = _get(exp, "trials", int, 1)
        seed = _get(exp, "seed", int, 0)
        discount = _get(exp, "discount", float, _REQUIRED if metric == "discounted" else None)
        burn_in = _get(exp, "burn_in", int, 0)
        bin_width = _get(exp, "bin_width", _positive, 0.1)

        cons = parser["constraints"]
        mode = _get(cons, "mode", ConstraintMode, ConstraintMode.ABSOLUTE_COUNT)
        delta = int if mode is ConstraintMode.ABSOLUTE_COUNT else Fraction
        windows = _get(cons, "windows", lambda raw: [
            Constraint(delta(d), int(w)) for d, w in _pairs(raw)
        ])
        constraints = ConstraintSet(windows, mode)
        initial_stake = _get(cons, "initial_stake", int, None)

        arrival_counts = _get(parser["arrivals"], "counts", _discrete(int))

        values = _values_dist(parser["values"])

        mech = parser["mechanisms"]
        names = tuple(tok.strip() for tok in _get(mech, "list", str, "").split(",") if tok.strip())
        alpha = _get(mech, "alpha", _checked(float, lambda a: 0 < a <= 1, "must lie in (0, 1]"),
                     0.9)
        rate = _get(mech, "rate", _checked(int, lambda r: r >= 1, "must be positive"), 1)
        sort_key = _get(mech, "sort_key", _one_of("cost", "bid"), "cost")
        constant_sort = _get(mech, "constant_sort", _one_of("fcfs", "cost", "bid"), "cost")

        pol = parser["policy"] if parser.has_section("policy") else None
        if pol is not None:
            cap = _get(pol, "cap", int, 10)
            tolerance = _get(pol, "tolerance", _positive, 1e-9)
            rel = _get(pol, "path", _checked(str, bool, "must not be empty"),
                       f"policies/{name}.policy")

        for section in parser.sections():
            if section not in parser.seen:
                raise ConfigError(f"unknown section [{section}]")
            for key in parser[section]:
                if key not in parser.seen[section]:
                    raise ConfigError(f"[{section}] has unknown key {key!r}")

        if discount is not None and metric == "steady-state":
            raise ConfigError("[experiment] discount applies to the discounted metric only")
        if "burn_in" in exp and metric == "discounted":
            raise ConfigError("[experiment] burn_in applies to the steady-state metric only")
        if not names:
            raise ConfigError("[mechanisms] list must name at least one mechanism")
        policy_spec = None
        if pol is not None:
            # The model is the experiment's: its discounted metric, its one
            # window and its two cost points.
            if metric != "discounted":
                raise ConfigError(f"[policy] needs metric = discounted, not {metric}")
            if constraints.mode is not ConstraintMode.ABSOLUTE_COUNT or len(constraints) != 1:
                raise ConfigError("[policy] needs a single absolute constraint")
            if not isinstance(values, Discrete) or len(values.points) != 2:
                raise ConfigError("[policy] needs a two-point [values] distribution")
            budget = int(constraints[0].delta)
            if budget > MAX_BUDGET:
                raise ConfigError(f"[policy] needs a budget of at most {MAX_BUDGET}, got {budget}")
            policy_spec = PolicySpec(
                cap=cap,
                budget=budget,
                window=constraints[0].window,
                tolerance=tolerance,
                high_prob=values.probs[values.points.index(max(values.points))],
                path=(path.parent / rel).resolve(),
            )
    except KeyError as exc:
        raise ConfigError(f"config {path} is missing section {exc}") from exc

    return ExperimentSpec(
        name=name,
        metric=metric,
        constraints=constraints,
        arrival_counts=arrival_counts,
        values=values,
        steps=steps,
        trials=trials,
        seed=seed,
        discount=discount,
        burn_in=burn_in,
        initial_stake=initial_stake,
        mechanism_names=names,
        alpha=alpha,
        rate=rate,
        sort_key=sort_key,
        constant_sort=constant_sort,
        bin_width=bin_width,
        policy=policy_spec,
    )


def _arrival_model(spec: ExperimentSpec) -> ArrivalModel:
    lo, hi = sorted(spec.values.points)
    return ArrivalModel(spec.arrival_counts.as_count_dist(), spec.policy.high_prob, lo, hi)


def _model(spec: ExperimentSpec) -> MdpModel:
    pol = spec.policy
    return build_model(_arrival_model(spec), pol.cap, pol.budget, pol.window, spec.discount)


def _materialize_policy(spec: ExperimentSpec) -> Policy:
    """Load the cached policy file, solving and caching it if absent.

    A cached policy is used only if its values are a Bellman fixed point of
    the config's model, within the solver tolerance plus the rounding of the
    file's 13 significant digits carried through one backup, and no stored
    action trails the best one by more than ten tolerances plus that bound.
    """
    assert spec.policy is not None
    cache = spec.policy.path
    if cache.exists():
        policy = load_policy(cache)
        ok = (
            policy.space.cap == spec.policy.cap
            and policy.space.budget == spec.policy.budget
            and policy.space.window == spec.policy.window
            and policy.discount == spec.discount
            and policy.tolerance == spec.policy.tolerance
        )
        if ok:
            q = action_values(_model(spec), policy.values)
            best = q.max(axis=1)
            lag = best - q[np.arange(policy.space.n), policy.actions]
            scale = float(np.max(np.abs(policy.values)))
            bound = policy.tolerance + (1 + policy.discount) * 5e-13 * scale + 1e-12
            ok = (
                float(np.max(np.abs(best - policy.values))) <= bound
                and float(np.max(lag)) <= 10 * policy.tolerance + bound
            )
        if not ok:
            raise ModelMismatch(
                f"cached policy {cache} was not solved for this config's model; "
                "delete it or point [policy] path elsewhere"
            )
        return policy
    policy = value_iteration(_model(spec), tolerance=spec.policy.tolerance)
    save_policy(policy, cache)
    return policy


def _mechanisms(spec: ExperimentSpec) -> list[Mechanism | OptimalMechanism]:
    """The configured mechanisms, in list order.

    The heuristic mechanisms and the run's fields are checked first, so a
    bad config exits before an `optimal` policy is loaded or solved.
    """
    heuristics = {
        "minslack": Mechanism.minslack,
        "prio-minslack": lambda: Mechanism.prio_minslack(sort_key=spec.sort_key),
        "alpha-minslack": lambda: Mechanism.alpha_minslack(spec.alpha, sort_key=spec.sort_key),
        "constant": lambda: Mechanism.constant(spec.rate, sort_key=spec.constant_sort),
    }
    out: list[Mechanism | None] = []
    for token in spec.mechanism_names:
        if token == "optimal":
            if spec.policy is None:
                raise ConfigError("mechanism 'optimal' needs a [policy] section")
            out.append(None)
        elif token in heuristics:
            out.append(heuristics[token]())
        else:
            raise ConfigError(f"[mechanisms] list has unknown mechanism {token!r}")
    spec.sim_config(Mechanism.minslack())  # the run's fields do not depend on the mechanism
    if None not in out:
        return out
    optimal = OptimalMechanism(_materialize_policy(spec), _arrival_model(spec))
    return [optimal if m is None else m for m in out]


def _check_out(out: str | None) -> None:
    """Fail before the run does its work, not after, if ``out`` cannot be a file."""
    if out not in (None, "-") and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        raise ConfigError(f"cannot write {out}: not a file in an existing directory")


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from None


def _fmt(x: float) -> str:
    return repr(float(x))


# =============================================================
# Subcommands
# =============================================================


def cmd_solve(args: argparse.Namespace) -> int:
    spec = load_experiment(args.config)
    if spec.policy is None:
        raise ConfigError("config has no [policy] section to solve")
    target = Path(args.out) if args.out else spec.policy.path
    if args.out == "-" or target.is_dir():
        why = "a policy goes to a file, not stdout" if args.out == "-" else "is a directory"
        raise ConfigError(f"cannot write policy file {target}: {why}")
    policy = value_iteration(_model(spec), tolerance=spec.policy.tolerance)
    info = policy.info
    print(
        f"states={policy.space.n} iterations={info.iterations} residual={info.residual:.3e}"
    )
    if args.check:
        if not target.exists():
            raise ConfigError(f"--check: no existing policy file at {target}")
        if target.read_bytes() != policy_text(policy).encode("ascii"):
            raise FeasibilityViolation(f"policy file {target} does not match regeneration")
        print(f"check ok: {target} matches regeneration")
        return EXIT_OK
    save_policy(policy, target)
    print(f"wrote {target}")
    return EXIT_OK


def _experiment(args: argparse.Namespace) -> ExperimentSpec:
    """The config's experiment, with the --seed and --trials given."""
    given = {k: getattr(args, k) for k in ("seed", "trials") if getattr(args, k) is not None}
    return replace(load_experiment(args.config), **given)


def _run(spec: ExperimentSpec, out: str | None, header: str, rows) -> int:
    """Run every configured mechanism and write ``header`` and, for each
    mechanism in turn, the CSV rows ``rows`` makes of its summary."""
    _check_out(out)
    lines = [header]
    for mech in _mechanisms(spec):
        lines += rows(monte_carlo(spec.sim_config(mech)))
    _write_out("\n".join(lines) + "\n", out)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    def rows(summary) -> list[str]:
        gamma = "" if summary.gamma is None else _fmt(summary.gamma)
        stats = (summary.mean, summary.stderr, summary.p001, summary.p01, summary.p50)
        return [",".join([summary.mechanism, summary.metric, *map(_fmt, stats),
                          str(summary.trials), str(summary.steps), gamma, str(summary.seed)])]
    return _run(_experiment(args), args.out, SIMULATE_HEADER, rows)


def cmd_histogram(args: argparse.Namespace) -> int:
    spec = _experiment(args)
    if spec.metric != "discounted":
        raise ConfigError("histograms are defined for the discounted metric")
    return _run(spec, args.out, HISTOGRAM_HEADER, lambda summary: [
        ",".join([summary.mechanism, _fmt(b.left), _fmt(b.right), str(b.count),
                  _fmt(b.density), _fmt(b.log_density)])
        for b in make_histogram(summary.values, spec.bin_width)
    ])


def cmd_policy_diff(args: argparse.Namespace) -> int:
    if args.policy is None:
        raise ConfigError("policy-diff needs a policy file path")
    policy = load_policy(args.policy)
    space = policy.space
    # Greedy slack filling: process all the slack allows, up to the queue.
    greedy = np.minimum(space.slack[space.hist], space.w_low + space.w_high)
    diff = greedy - policy.actions
    lines = [f"states: {space.n}"]
    for d, count in zip(*(c.tolist() for c in np.unique(diff, return_counts=True))):
        lines.append(f"diff={d}: {count}")
    lines.append("states with |diff| >= 2:")
    hcols = [f"h{j + 1}" for j in range(space.window - 1)]
    lines.append(",".join(["index", "w_low", "w_high", *hcols, "optimal", "greedy"]))
    big = np.flatnonzero(np.abs(diff) >= 2)
    table = np.column_stack([
        big, space.w_low[big], space.w_high[big], space.digits[space.hist[big]],
        policy.actions[big], greedy[big],
    ])
    lines.extend(",".join(map(str, row)) for row in table.tolist())
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _verify_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    n = StateSpace(10, 5).n
    checks.append(("state count (cap 10, budget 5)", n == 15246, f"got {n}"))

    amap = [alpha_capacity(Fraction(9, 10), s) for s in range(6)]
    checks.append(("alpha(0.9) capacity map", amap == [0, 1, 2, 3, 4, 4], f"got {amap}"))

    model = build_model(
        ArrivalModel(((0, 0.5), (1, 0.3), (2, 0.2)), 0.4, 1.0, 10.0),
        cap=3,
        budget=2,
        window=2,
        discount=0.9,
    )
    # Every count pair's outcomes carry all the mass, whichever successors they merge into.
    sums_ok = np.allclose(model.table.planes.sum(axis=0), 1.0, rtol=0.0, atol=1e-12)
    checks.append(("transition rows sum to 1", sums_ok, ""))

    policy = value_iteration(model, tolerance=1e-9)
    legal_ok = bool(np.all(policy.actions <= model.space.slack[model.space.hist]))
    checks.append(("solved actions are legal", legal_ok, ""))

    rng = np.random.default_rng(7)
    dominance_ok = True
    detail = ""
    for case in range(100):
        horizon = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        cs = ConstraintSet(
            [
                Constraint(rng.integers(1, 4), rng.integers(1, 4))
                for _ in range(int(rng.integers(1, 3)))
            ],
            ConstraintMode.ABSOLUTE_COUNT,
        )
        reqs = [
            ExitRequest(f"r{i}", int(rng.integers(1, horizon + 1)), float(rng.integers(1, 5)))
            for i in range(int(rng.integers(1, 7)))
        ]
        reqs.sort(key=lambda r: r.requested_at)
        state = QueueState.initial(cs, arrivals=[r for r in reqs if r.requested_at == 1])
        trace = []
        for t in range(1, horizon + 1):
            sel = Mechanism.minslack().select(state)
            arrivals = [r for r in reqs if r.requested_at == t + 1]
            state = step(state, arrivals, sel)
            trace.append(len(sel))
        if not check_trace_feasible(tuple(trace), None, cs):
            dominance_ok, detail = False, f"case {case}: infeasible trace"
            break
        prefix = np.cumsum(trace)
        for sched in brute_force_schedules(reqs, cs, horizon):
            if np.any(np.cumsum(sched) > prefix):
                dominance_ok, detail = False, f"case {case}: dominated by {sched}"
                break
        if not dominance_ok:
            break
    checks.append(("greedy prefix dominance (100 instances)", dominance_ok, detail))
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    failed = False
    for name, ok, detail in _verify_checks():
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{status} {name}{suffix}")
        failed = failed or not ok
    return EXIT_INVARIANT if failed else EXIT_OK


# =============================================================
# Entry point
# =============================================================


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exitqueue",
        description="Rate-limited exit queue simulator and policy solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_and_out(p: argparse.ArgumentParser, out="output path (default stdout)") -> None:
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help=out)

    def overrides(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--trials", type=int, default=None, help="override the trial count")

    p_solve = sub.add_parser("solve", help="solve the decision model and write a policy file")
    config_and_out(p_solve, "policy file to write (default the config's [policy] path)")
    p_solve.add_argument("--check", action="store_true", help="verify instead of overwrite")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run the configured mechanisms, emit CSV")
    config_and_out(p_sim)
    overrides(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_hist = sub.add_parser("histogram", help="emit binned metric densities as CSV")
    config_and_out(p_hist)
    overrides(p_hist)
    p_hist.set_defaults(func=cmd_histogram)

    p_diff = sub.add_parser("policy-diff", help="compare a policy file to greedy slack filling")
    p_diff.add_argument("policy", nargs="?", default=None, help="policy file path")
    p_diff.add_argument("--out", default=None, help="output path (default stdout)")
    p_diff.set_defaults(func=cmd_policy_diff)

    p_verify = sub.add_parser("verify", help="run built-in invariant cross-checks")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InvalidAlpha) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonConvergence as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ModelMismatch, UnknownRequest) as exc:
        print(f"model mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ExitQueueError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
