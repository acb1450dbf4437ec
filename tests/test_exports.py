"""Every name a module exports resolves, so a deleted function cannot leave
a dangling ``__all__`` entry behind; and the traced benchmark still runs on
what the package provides."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import numpy as np

import exitqueue
from exitqueue.simulate import run_trial

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

ALL_MECHANISMS_CONFIG = """\
[experiment]
metric = discounted
discount = 0.9
steps = 40
trials = 2
[constraints]
windows = 2:3
[arrivals]
counts = 0:0.5, 1:0.4, 5:0.1
[values]
points = 1:0.9, 10:0.1
[mechanisms]
list = optimal, minslack, prio-minslack, alpha-minslack, constant
alpha = 0.9
rate = 1
constant_sort = fcfs
[policy]
cap = 4
path = policies/small.policy
"""


def test_every_exported_name_resolves() -> None:
    modules = [
        importlib.import_module(f"exitqueue.{info.name}")
        for info in pkgutil.iter_modules(exitqueue.__path__)
    ]
    assert len(modules) == 8  # with __main__, which exports nothing
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_traced_benchmark_runs_on_the_package(tmp_path, monkeypatch) -> None:
    # `benchmarks/run.py --trace 1` reads the spelled-out rows, the config's
    # sort keys and every TrialResult field; the untraced runs read none.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    config = tmp_path / "all.cfg"
    config.write_text(ALL_MECHANISMS_CONFIG, encoding="utf-8")
    tr = tracing.Tracer()
    spec, table, policy = tracing.solve_pass(tr, config)
    assert (tmp_path / "policies" / "small.policy").is_file()

    metrics = tracing.solver_metrics(tr, table, policy)
    assert set(metrics) <= set(tracing.PER_LAYER)
    assert metrics["mdp.sweeps"] == policy.info.iterations
    # One row per nonzero plane entry at each legal pair's after-state counts.
    space = table.space
    after = table.after[table.after >= 0]
    rows = np.count_nonzero(table.planes[:, space.w_low[after], space.w_high[after]])
    assert metrics["mdp.transitions"] == rows > 0

    built = tracing.mechanisms(spec, policy)
    assert [m.name for m in built] == [
        "optimal", "minslack", "prio-minslack", "alpha-minslack(0.9)", "constant(1)"
    ]
    for mech in built:
        sim = spec.sim_config(mech)
        got, _ = tracing.traced_trial(tr, sim, 3, [])
        assert got == run_trial(sim, 3)
