"""Benchmark of exitqueue: solve, simulate and check one workload.

    python3 benchmarks/run.py --workload flagship --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout. The program is imported from
./src, and every file a run writes goes to a fresh directory under
./.bench_runs that is removed when the run ends. Informational lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 measures the end-to-end metrics,
--trace 1 makes the traced run that gives the per-layer metrics (see
tracing.py). benchmarks/README.md lists every metric.

Workloads (why each was chosen is in the README):
  flagship        configs/gamma90.cfg: solve the policy, then simulate
                  optimal and prio-minslack at 10,000 trials x 350 steps.
  steady-pareto   configs/steady_pareto.cfg at its 10,000 steps, one trial
                  per simulate call (the config has 10): a reduced run.
  churn-fraction  a generated config: one cost level, fraction-of-stake
                  windows, 40 trials x 350 steps per simulate call.

A round is one simulate call per mechanism, on the same trials, preceded
on flagship by the solve of its policy into an empty cache. Rounds repeat
until the next one would end after --seconds, and at least three run.
Every workload then solves the flagship model five more times, after
peak_rss_mb is read, so solve_s is measured on every workload without
adding the solver's memory to the object engine's. Every timed call is
scaled by the Clock below.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
FLAGSHIP_CONFIG = ROOT / "configs" / "gamma90.cfg"
POLICY = Path("policies") / "gamma90.policy"  # the [policy] path of gamma90.cfg

MIN_ROUNDS = 3
SIDE_SOLVES = 5
SETUP_PROBES = 5
SEED_SPACING = 1000  # rounds per seed before two seeds' trials could meet

# Seconds the calibration kernel, and a fresh interpreter importing numpy,
# take on the reference machine (README, "Timing on a shared host"):
# timings are scaled to that machine's speed.
CALIBRATION_REF_S = 0.16
INTERPRETER_REF_S = 0.2

# Homogeneous stakers (one cost level) under two fraction-of-stake windows.
# At most 350 * 5 = 1,750 of the 10,000 stake units can exit in a trial, so
# capacities stay at floor(8,250 / 4,000) = 2 per period and
# floor(8,250 / 1,000) = 8 per 8 periods or more: at least 1 per period,
# above the mean arrival rate of 0.9.
CHURN_CONFIG = """\
[experiment]
name = churn_fraction
metric = discounted
discount = 0.9
steps = 350
trials = 40
seed = 0

[constraints]
mode = fraction
windows = 1/4000:1, 1/1000:8
initial_stake = 10000

[arrivals]
counts = 0:0.5, 1:0.4, 5:0.1

[values]
kind = discrete
points = 1:1

[mechanisms]
list = minslack, constant, prio-minslack
rate = 1
constant_sort = fcfs
"""


LIST_LINE = re.compile(r"^list\s*=(.*)$", re.MULTILINE)


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file name inside the run's scratch directory
    source: Path | None  # bundled config copied there; None writes CHURN_CONFIG
    trials: int  # trials per simulate call
    fresh_seeds: bool  # each round simulates new trials (else the same ones)
    solve_in_round: bool  # each round solves its own policy first

    def text(self) -> str:
        return CHURN_CONFIG if self.source is None else self.source.read_text(encoding="utf-8")

    def mechanisms(self) -> list[str]:
        return [t.strip() for t in LIST_LINE.search(self.text()).group(1).split(",") if t.strip()]

    def prepare(self, directory: Path) -> Path:
        """Write the config into an empty directory, plus one copy per mechanism."""
        directory.mkdir(parents=True)
        text = self.text()
        for token in self.mechanisms():
            (directory / f"{token}.cfg").write_text(LIST_LINE.sub(f"list = {token}", text), encoding="utf-8")
        path = directory / self.config
        path.write_text(text, encoding="utf-8")
        return path

    def base_seed(self, seed: int, round_index: int) -> int:
        k = round_index if self.fresh_seeds else 0
        return (seed * SEED_SPACING + k) * self.trials


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flagship", "gamma90.cfg", FLAGSHIP_CONFIG, 10_000, False, True),
        Workload(
            "steady-pareto", "steady_pareto.cfg", ROOT / "configs" / "steady_pareto.cfg", 1, True, False
        ),
        Workload("churn-fraction", "churn_fraction.cfg", None, 40, True, False),
    )
}
SOLVER = Workload("solve", "gamma90.cfg", FLAGSHIP_CONFIG, 1, False, True)


def import_program() -> None:
    """Import exitqueue from this checkout's src, or exit with an error."""
    if not (SRC / "exitqueue" / "__init__.py").is_file():
        sys.exit(f"benchmark: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import exitqueue

    if Path(exitqueue.__file__).resolve().parent != SRC / "exitqueue":
        sys.exit(f"benchmark: exitqueue was imported from {exitqueue.__file__}, not {SRC}")


def setup_probe(workload: Workload, directory: Path) -> None:
    """One set-up, in a fresh interpreter: imports, scratch dir, config."""
    import_program()
    from exitqueue.cli import load_experiment

    load_experiment(workload.prepare(directory))
    print("ready", flush=True)


def time_setup(workload: Workload, directory: Path) -> float:
    """Seconds from process start to the probe's ready line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", workload.name, str(directory)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def calibration_kernel() -> float:
    """A fixed mix of interpreter and small-array numpy work, in small memory."""
    total = 0.0
    for _ in range(120):
        rows = [(i % 97, i * 0.5, str(i)) for i in range(2_000)]
        rows.sort(key=lambda r: -r[1])
        total += math.fsum(r[1] for r in rows)
        ids = {r[2] for r in rows[:1_000]}
        total += len(tuple(r for r in rows if r[2] not in ids))
    m = np.random.default_rng(0).random((100, 350))
    for _ in range(1000):
        m = np.minimum(m * 1.0001, 1.0)
        total += float(m.sum(axis=1)[0])
    return total


def interpreter_start() -> None:
    """A fresh interpreter that imports numpy: the reference for set-up."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)


class Clock:
    """Wall times scaled to the reference machine's speed.

    On a shared host the same call can take 40% longer for minutes at a
    time. Each timed call is bracketed by runs of a reference task, and its
    wall time is multiplied by the task's reference seconds over the mean
    of the two runs, so a host slowdown that slows both cancels out while
    a change in the program's own speed does not.
    """

    def __init__(self, task=calibration_kernel, reference_s: float = CALIBRATION_REF_S) -> None:
        self.task = task
        self.reference_s = reference_s
        self.speeds: list[float] = []
        self._last = self._task_s()

    def _task_s(self) -> float:
        start = time.perf_counter()
        self.task()
        return time.perf_counter() - start

    def scaled(self, timed) -> float | None:
        """Run timed(), which returns its wall seconds or None; scale them."""
        before = self._last
        raw = timed()
        self._last = self._task_s()
        if raw is None:
            return None
        self.speeds.append(self.reference_s * 2.0 / (before + self._last))
        return raw * self.speeds[-1]


@dataclass
class Tally:
    """CLI calls made and the problems found in their outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def cli(self, args: list[str]) -> float | None:
        """Run one exitqueue command; its wall time, or None if it failed."""
        from exitqueue.cli import main

        self.attempted += 1
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(args)
        except Exception:
            code = "exception"
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            print(f"exitqueue {' '.join(args)}: exit {code}\n{err.getvalue()}", file=sys.stderr)
            return None
        return elapsed

    def check(self, label: str, fn, *args, **kwargs) -> None:
        try:
            found = fn(*args, **kwargs)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            found = [f"unreadable output: {exc!r}"]
        self.problems.extend(f"{label}: {p}" for p in found)


def solve_in(tally: Tally, workload: Workload, directory: Path) -> float | None:
    return tally.cli(["solve", "--config", str(directory / workload.config)])


def simulate_in(tally: Tally, workload: Workload, directory: Path, token: str, seed: int) -> float | None:
    args = ["simulate", "--config", str(directory / f"{token}.cfg"), "--seed", str(seed)]
    args += ["--trials", str(workload.trials), "--out", str(directory / f"out.{token}.csv")]
    return tally.cli(args)


def merged_csv(workload: Workload, directory: Path) -> str:
    """The per-mechanism CSVs of one round as the one CSV a single call writes."""
    parts = [(directory / f"out.{t}.csv").read_text(encoding="utf-8") for t in workload.mechanisms()]
    return parts[0] + "".join(p.split("\n", 1)[1] for p in parts[1:])


def measure(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    # Process start-up slows with the host differently from computation,
    # so set-up is scaled by an interpreter start instead of the kernel.
    starts = Clock(interpreter_start, INTERPRETER_REF_S)
    setup = [
        starts.scaled(lambda: time_setup(workload, work / f"setup{k}")) for k in range(SETUP_PROBES)
    ]
    clock = Clock()

    tally = Tally()
    rounds: list[tuple[Path, int, float | None, float | None]] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        k = len(rounds)
        began = time.perf_counter()
        directory = work / f"round{k}"
        workload.prepare(directory)
        solve_s = None
        if workload.solve_in_round:
            solve_s = clock.scaled(lambda: solve_in(tally, workload, directory))
        base = workload.base_seed(seed, k)
        times = [
            clock.scaled(lambda t=token: simulate_in(tally, workload, directory, t, base))
            for token in workload.mechanisms()
        ]
        sim_s = None if None in times else sum(times)
        rounds.append((directory, base, solve_s, sim_s))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(durations) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    solves = [(d, s) for d, _, s, _ in rounds if s is not None]
    for k in range(SIDE_SOLVES):
        directory = work / f"solve{k}"
        SOLVER.prepare(directory)
        solve_s = clock.scaled(lambda: solve_in(tally, SOLVER, directory))
        if solve_s is not None:
            solves.append((directory, solve_s))

    exp = checks.read_experiment(rounds[0][0] / workload.config)
    done = [(d, base, sim_s) for d, base, _, sim_s in rounds if sim_s is not None]
    check_outputs(tally, workload, exp, done, [d for d, _ in solves])

    # Work done per second over the whole run: summing first averages the
    # calibration noise of every call instead of keeping one round's.
    trial_steps = len(exp.mechanisms) * workload.trials * exp.steps * len(done)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (statistics.median([s for _, s in solves]), "s"),
        "trial_steps_per_s": (trial_steps / sum(sim_s for _, _, sim_s in done), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{workload.name}: {len(rounds)} rounds, {len(solves)} solves, {len(setup)} set-up probes")
    print(f"{workload.name}: median machine speed {statistics.median(clock.speeds):.3f} of the reference")
    if workload.trials < exp.trials:
        print(
            f"{workload.name}: reduced run: {workload.trials} of the config's {exp.trials} trials"
            f" per simulate call, at its full {exp.steps} steps"
        )
    return result(tally, metrics)


def check_outputs(tally: Tally, workload: Workload, exp, done, solve_dirs) -> None:
    """Check every output the rounds and solves wrote, outside the timing."""
    if solve_dirs:
        policy_exp = checks.read_experiment(solve_dirs[0] / SOLVER.config)
        policy = (solve_dirs[0] / POLICY).read_text(encoding="ascii")
        tally.check("policy", checks.check_policy, policy, checks.TwoClassModel.from_experiment(policy_exp))
        for d in solve_dirs[1:]:
            if (d / POLICY).read_text(encoding="ascii") != policy:
                tally.problems.append(f"policy: {d.name} differs from {solve_dirs[0].name}")
    if not done:
        return
    if workload.name == "flagship":
        # Every round simulates the same trials, so one check covers them all.
        first, base, _ = done[0]
        csv = merged_csv(workload, first)
        for d, _, _ in done[1:]:
            if merged_csv(workload, d) != csv:
                tally.problems.append(f"csv: {d.name} differs from {first.name}")
        policy = (first / POLICY).read_text(encoding="ascii")
        tally.check("csv", checks.check_flagship_csv, csv, exp, policy, workload.trials, base)
        return
    checker = checks.check_steady_csv if workload.name == "steady-pareto" else checks.check_fraction_csv
    for d, base, _ in done:
        csv = merged_csv(workload, d)
        tally.check(f"csv {d.name}", checker, csv, exp, workload.trials, base)


def result(tally: Tally, metrics: dict[str, tuple[float, str]]) -> dict:
    for problem in tally.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced(workload: Workload, seed: int, work: Path) -> dict:
    import tracing

    tally = Tally()
    metrics, tracer = tracing.traced_run(workload, SOLVER, seed, work, tally)
    tracer.write(RUNS / f"spans-{workload.name}-seed{seed}.json")
    print(f"{workload.name}: traced run, {len(tracer.spans)} spans")
    return result(tally, {k: (v, tracing.PER_LAYER[k]) for k, v in metrics.items()})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", nargs=2, metavar=("WORKLOAD", "DIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(WORKLOADS[args.setup_probe[0]], Path(args.setup_probe[1]))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    import_program()
    workload = WORKLOADS[args.workload]

    RUNS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUNS))
    try:
        if args.trace:
            out = traced(workload, args.seed, work)
        else:
            out = measure(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
