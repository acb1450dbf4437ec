"""Command-line front-end: config parsing, CSV output, exit codes, caching.

Every test drives main() in-process with a config written to tmp_path, so
the assertions cover the same code paths as the installed console script.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from exitqueue import cli, mdp
from exitqueue.cli import HISTOGRAM_HEADER, SIMULATE_HEADER, load_experiment, main
from exitqueue.errors import NonConvergence
from exitqueue.mdp import action_values, load_policy

BASE = """\
[experiment]
name = tiny
metric = discounted
steps = 12
trials = 3
seed = 5
discount = 0.9
bin_width = 0.05

[constraints]
mode = absolute
windows = 2:3

[arrivals]
counts = 0:0.5, 1:0.4, 5:0.1

[values]
kind = discrete
points = 1:0.9, 10:0.1

[mechanisms]
list = minslack, prio-minslack, alpha-minslack, constant
alpha = 0.9
rate = 1
constant_sort = fcfs

[policy]
cap = 3
tolerance = 1e-9
path = policies/tiny.policy
"""


# BASE's [experiment] lines from metric to discount, and a steady-state
# form of them, which has a burn-in and no discount.
STEADY_EXPERIMENT = (
    "metric = discounted\nsteps = 12\ntrials = 3\nseed = 5\ndiscount = 0.9\n",
    "metric = steady-state\nsteps = 12\ntrials = 3\nseed = 5\nburn_in = 2\n",
)
# BASE as a steady-state config: an optimal policy solves the discounted
# metric only, so it has no [policy] section.
STEADY = BASE[: BASE.index("[policy]")].replace(*STEADY_EXPERIMENT)


def _config(tmp_path: Path, text: str = BASE, name: str = "tiny.cfg") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()]


# =============================================================
# Config parsing
# =============================================================


def test_load_experiment_parses_the_full_schema(tmp_path) -> None:
    spec = load_experiment(_config(tmp_path))
    assert spec.name == "tiny"
    assert spec.metric == "discounted"
    assert (spec.steps, spec.trials, spec.seed) == (12, 3, 5)
    assert spec.discount == 0.9
    assert [(int(c.delta), c.window) for c in spec.constraints] == [(2, 3)]
    assert spec.arrival_counts.points == (0, 1, 5)
    assert spec.values.points == (1.0, 10.0)
    assert spec.mechanism_names == (
        "minslack",
        "prio-minslack",
        "alpha-minslack",
        "constant",
    )
    # Budget and window come from the single absolute constraint, and
    # high_prob is the top point's probability.
    assert (spec.policy.cap, spec.policy.budget, spec.policy.window) == (3, 2, 3)
    assert spec.policy.high_prob == 0.1
    assert spec.policy.path == (tmp_path / "policies" / "tiny.policy").resolve()


def test_load_experiment_rejects_bad_configs(tmp_path) -> None:
    with pytest.raises(Exception):
        load_experiment(tmp_path / "missing.cfg")
    bad = _config(tmp_path, BASE.replace("windows = 2:3", "windows = "), "bad.cfg")
    from exitqueue.errors import ConfigError

    with pytest.raises(ConfigError):
        load_experiment(bad)
    nolist = _config(
        tmp_path, BASE.replace("list = minslack, prio-minslack, alpha-minslack, constant", "list ="),
        "nolist.cfg",
    )
    with pytest.raises(ConfigError):
        load_experiment(nolist)


@pytest.mark.parametrize(
    ("old", "new", "named"),
    [
        ("cap = 3", "cap = 3\nbudget = 2", "[policy] has unknown key 'budget'"),
        ("cap = 3", "cap = 3\nwindow = 3", "[policy] has unknown key 'window'"),
        ("cap = 3", "cap = 3\nhigh_prob = 0.1", "[policy] has unknown key 'high_prob'"),
        ("seed = 5", "seed = 5\nsteps_per_trial = 4", "[experiment] has unknown key"),
        ("[policy]", "[extra]\nx = 1\n\n[policy]", "unknown section [extra]"),
        (
            "kind = discrete\npoints = 1:0.9, 10:0.1",
            "kind = uniform\nlow = 0\nhigh = 1",
            "[values] has unknown key 'low'",
        ),
        (
            "kind = discrete\npoints = 1:0.9, 10:0.1",
            "kind = exponential\nrate = 1\nscale = 1",
            "[values] has unknown key 'scale'",
        ),
        # configparser reads a [DEFAULT] key in every section.
        ("[experiment]", "[DEFAULT]\nseed = 3\n\n[experiment]", "unknown section [DEFAULT]"),
    ],
)
def test_load_experiment_rejects_keys_it_does_not_read(tmp_path, old, new, named) -> None:
    from exitqueue.errors import ConfigError

    cfg = _config(tmp_path, BASE.replace(old, new, 1), "strict.cfg")
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_experiment(cfg)
    assert main(["simulate", "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    ("old", "new", "named"),
    [
        ("steps = 12\n", "", "[experiment] steps"),
        (
            "mode = absolute\nwindows = 2:3",
            "mode = fraction\nwindows = 1/0:3\ninitial_stake = 100",
            "[constraints] windows",
        ),
        ("kind = discrete\npoints = 1:0.9, 10:0.1", "kind = uniform\nlo = 0\nhi = inf", "[values] hi"),
        ("metric = discounted", "metric = steady-state", "[experiment] discount"),
        ("seed = 5", "seed = 5\nburn_in = 2", "[experiment] burn_in"),
        ("metric = discounted", "metric = mean", "[experiment] metric"),
        ("discount = 0.9\n", "", "[experiment] discount is required"),
        (*STEADY_EXPERIMENT, "[policy] needs metric = discounted"),
        ("tolerance = 1e-9", "tolerance = inf", "[policy] tolerance"),
        ("tolerance = 1e-9", "tolerance = nan", "[policy] tolerance"),
        (
            "kind = discrete\npoints = 1:0.9, 10:0.1",
            "kind = pareto\nshape = 2",
            "[values] scale is required",
        ),
        ("mode = absolute", "mode = fractional", "[constraints] mode"),
        ("constant_sort = fcfs", "constant_sort = lifo", "[mechanisms] constant_sort"),
        ("[arrivals]\ncounts = 0:0.5, 1:0.4, 5:0.1\n", "", "is missing section 'arrivals'"),
    ],
    ids=["missing-steps", "zero-denominator", "infinite-uniform", "steady-state-discount",
         "discounted-burn-in", "unknown-metric", "discounted-without-discount", "steady-state-policy",
         "infinite-tolerance", "nan-tolerance", "pareto-without-scale", "unknown-mode",
         "unknown-constant-sort", "missing-arrivals"],
)
def test_load_experiment_names_the_bad_field(tmp_path, capsys, old, new, named) -> None:
    from exitqueue.errors import ConfigError

    cfg = _config(tmp_path, BASE.replace(old, new, 1), "bad.cfg")
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_experiment(cfg)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and named in err[0]


@pytest.mark.parametrize(
    "points",
    ["-1:0.9, 10:0.1", "nan:0.9, 10:0.1", "1:0.9, inf:0.1"],
)
@pytest.mark.parametrize("mechanism", ["minslack", "prio-minslack"])
def test_simulate_rejects_costs_that_are_negative_or_not_finite(
    tmp_path, capsys, points, mechanism
) -> None:
    # minslack runs on the unit-stake engine, prio-minslack on the count engine.
    text = BASE[: BASE.index("[policy]")].replace("points = 1:0.9, 10:0.1", f"points = {points}")
    text = text.replace("list = minslack, prio-minslack, alpha-minslack, constant",
                        f"list = {mechanism}")
    assert main(["simulate", "--config", str(_config(tmp_path, text, "costs.cfg"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: values must draw finite nonnegative costs")


@pytest.mark.parametrize(
    "values",
    ["kind = exponential\nrate = nan", "kind = exponential\nscale = inf",
     "kind = exponential\nrate = 5e-324",
     "kind = pareto\nshape = nan\nscale = 5", "kind = pareto\nshape = 2\nscale = inf",
     "kind = uniform\nlo = -1\nhi = 1"],
)
def test_simulate_rejects_cost_distributions_that_draw_bad_costs(tmp_path, capsys, values) -> None:
    # Rejected at the config, before any trial is drawn: a rate of 5e-324
    # has an infinite scale.
    text = BASE[: BASE.index("[policy]")].replace("kind = discrete\npoints = 1:0.9, 10:0.1", values)
    assert main(["simulate", "--config", str(_config(tmp_path, text, "costs.cfg"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: values must draw finite nonnegative costs")


@pytest.mark.parametrize(
    ("text", "values", "where"),
    [
        (BASE, "kind = discrete\npoints = 1e308:0.5, 1.7e308:0.5", "at seed 5"),
        (BASE, "kind = pareto\nshape = 0.005\nscale = 1", "at seed 6"),
        (STEADY, "kind = pareto\nshape = 0.005\nscale = 1", "at seed 6"),
        (BASE, "kind = exponential\nrate = 1e-307", "in the stderr of seeds 5-7"),
    ],
    ids=["sums-overflow", "pareto-draws-inf", "pareto-draws-inf-steady-state",
         "stderr-overflows"],
)
def test_simulate_rejects_costs_whose_sums_leave_the_float_range(
    tmp_path, capsys, text, values, where
) -> None:
    # Finite parameters can still draw costs, or sum to metrics, beyond the
    # float range: one line names the values and the first seed that does.
    text = text.split("[policy]")[0].replace("kind = discrete\npoints = 1:0.9, 10:0.1", values)
    assert main(["simulate", "--config", str(_config(tmp_path, text, "costs.cfg"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: values must draw costs whose sums stay in the float range")
    assert err.endswith(f"leaves it {where}\n") and err.count("\n") == 1


@pytest.mark.parametrize(
    ("old", "new", "args"),
    [
        ("trials = 3", "trials = 0", []),
        ("metric = discounted", "metric = mean", []),
        ("seed = 5", "seed = 5\nburn_in = 12", []),
        ("seed = 5", "seed = 5\nburn_in = 10", []),
        ("seed = 5", "seed = -1", []),
        ("alpha = 0.9", "alpha = 2", []),
        ("alpha-minslack,", "alpha-minslak,", []),
        ("", "", ["--seed", "-1"]),
        ("", "", ["--trials", "0"]),
        (*STEADY_EXPERIMENT, []),
    ],
    ids=["trials", "metric", "burn-in", "discounted-burn-in", "seed", "alpha", "misspelled-mechanism",
         "seed-override", "trials-override", "steady-state-optimal"],
)
def test_bad_config_exits_before_the_policy_solve(tmp_path, monkeypatch, old, new, args) -> None:
    def refuse(*a, **k):
        raise AssertionError("policy solved")

    monkeypatch.setattr(cli, "value_iteration", refuse)
    text = BASE.replace("list = minslack,", "list = optimal, minslack,").replace(old, new, 1)
    cfg = _config(tmp_path, text, "bad.cfg")
    assert main(["simulate", "--config", str(cfg), *args]) == 2
    assert not (tmp_path / "policies" / "tiny.policy").exists()


def test_load_experiment_policy_needs_the_two_class_model(tmp_path) -> None:
    from exitqueue.errors import ConfigError

    three_point = BASE.replace("points = 1:0.9, 10:0.1", "points = 1:0.8, 5:0.1, 10:0.1")
    with pytest.raises(ConfigError, match="two-point"):
        load_experiment(_config(tmp_path, three_point, "three.cfg"))
    two_windows = BASE.replace("windows = 2:3", "windows = 2:3, 4:6")
    with pytest.raises(ConfigError, match="single absolute"):
        load_experiment(_config(tmp_path, two_windows, "two.cfg"))


def test_policy_budget_above_127_is_a_config_error(tmp_path, capsys) -> None:
    # A policy stores its actions as int8; the loader refuses a wider budget.
    wide = _config(tmp_path, BASE.replace("windows = 2:3", "windows = 128:3"), "wide.cfg")
    assert main(["solve", "--config", str(wide)]) == 2
    assert "[policy] needs a budget of at most 127, got 128" in capsys.readouterr().err
    assert not (tmp_path / "policies").exists()


def test_unallocatable_state_space_is_a_config_error(tmp_path, capsys) -> None:
    # 1,000,001^2 count pairs x 126 histories: more bytes than an address space holds.
    text = (CONFIGS / "gamma90.cfg").read_text(encoding="utf-8")
    text = text.replace("cap = 10\n", "cap = 1000000\n")
    cfg = _config(tmp_path, text.replace("policies/gamma90", "policies/huge"), "huge.cfg")
    for command in ("solve", "simulate"):
        assert main([command, "--config", str(cfg)]) == 2
        assert "cannot allocate a state space of 126,000,252,000,126 states" in capsys.readouterr().err
    assert not (tmp_path / "policies").exists()


def test_long_window_state_space_is_refused_before_its_histories(
    tmp_path, monkeypatch, capsys
) -> None:
    # 121 count pairs x C(129, 29) histories: the per-state arrays are refused
    # before any history is built, so a long window cannot fill memory first.
    def unreached(*args):
        raise AssertionError("histories built before the per-state arrays")

    monkeypatch.setattr(mdp, "_histories", unreached)
    text = (CONFIGS / "gamma90.cfg").read_text(encoding="utf-8")
    text = text.replace("windows = 5:5\n", "windows = 100:30\n")
    cfg = _config(tmp_path, text.replace("policies/gamma90", "policies/huge"), "huge.cfg")
    for command in ("solve", "simulate"):
        assert main([command, "--config", str(cfg)]) == 2
        assert (
            "cannot allocate a state space of 7,294,452,477,168,252,948,643,846,872,480 states"
            in capsys.readouterr().err
        )
    assert not (tmp_path / "policies").exists()


def test_load_experiment_reads_uniform_lo_and_hi(tmp_path) -> None:
    text = BASE[: BASE.index("[policy]")].replace(
        "kind = discrete\npoints = 1:0.9, 10:0.1", "kind = uniform\nlo = 2\nhi = 3"
    )
    spec = load_experiment(_config(tmp_path, text, "uniform.cfg"))
    assert (spec.values.lo, spec.values.hi) == (2.0, 3.0)


@pytest.mark.parametrize("name", ["100%", "%(steps)s", "run-%%"])
def test_load_experiment_reads_values_as_written(tmp_path, name) -> None:
    # No interpolation: a % is an ordinary character, never a reference.
    text = BASE.replace("name = tiny", f"name = {name}").replace("path = policies/tiny.policy\n", "")
    spec = load_experiment(_config(tmp_path, text))
    assert spec.name == name
    assert spec.policy.path == (tmp_path / "policies" / f"{name}.policy").resolve()


# =============================================================
# simulate
# =============================================================


def test_simulate_emits_one_row_per_mechanism(tmp_path, capsys) -> None:
    assert main(["simulate", "--config", str(_config(tmp_path))]) == 0
    rows = _rows(capsys.readouterr().out)
    assert ",".join(rows[0]) == SIMULATE_HEADER
    names = [r[0] for r in rows[1:]]
    assert names == ["minslack", "prio-minslack", "alpha-minslack(0.9)", "constant(1)"]
    for r in rows[1:]:
        assert r[1] == "discounted"
        assert float(r[2]) <= 0.0
        assert (r[7], r[8], r[9], r[10]) == ("3", "12", "0.9", "5")


def test_simulate_output_is_byte_identical_across_runs(tmp_path) -> None:
    cfg = _config(tmp_path)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_honors_overrides(tmp_path, capsys) -> None:
    cfg = _config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--seed", "9", "--trials", "2"]) == 0
    rows = _rows(capsys.readouterr().out)
    assert all((r[7], r[10]) == ("2", "9") for r in rows[1:])


def test_simulate_steady_state_leaves_gamma_blank(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, STEADY, "steady.cfg")
    assert main(["simulate", "--config", str(cfg)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert all(r[1] == "steady-state" and r[9] == "" for r in rows[1:])


def test_simulate_steady_state_without_arrivals_is_a_config_error(tmp_path, capsys) -> None:
    text = STEADY.replace("counts = 0:0.5, 1:0.4, 5:0.1", "counts = 0:1")
    cfg = _config(tmp_path, text, "quiet.cfg")
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("config error: ") and "burn_in = 2" in err


def test_simulate_beyond_the_initial_stake_is_a_config_error(tmp_path, capsys) -> None:
    # gamma90 runs both mechanisms on the count engine, which checks the
    # stake as run_trial does: 20 trials of 350 periods process more than 50.
    text = (CONFIGS / "gamma90.cfg").read_text(encoding="utf-8")
    text = text.replace("windows = 5:5\n", "windows = 5:5\ninitial_stake = 50\n")
    text = text.replace("trials = 10000\n", "trials = 20\n")
    cfg = _config(tmp_path, text, "staked.cfg")
    assert main(["simulate", "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: stake_history entries must be nonnegative\n"


def test_simulate_with_optimal_solves_and_caches(tmp_path, capsys) -> None:
    text = BASE.replace("list = minslack, prio-minslack, alpha-minslack, constant",
                        "list = optimal, prio-minslack")
    cfg = _config(tmp_path, text, "opt.cfg")
    cache = tmp_path / "policies" / "tiny.policy"
    assert not cache.exists()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    assert cache.exists()
    first = cache.read_bytes()
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "y.csv")]) == 0
    assert cache.read_bytes() == first
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
    rows = _rows((tmp_path / "x.csv").read_text())
    assert [r[0] for r in rows[1:]] == ["optimal", "prio-minslack"]


def test_corrupt_policy_cache_is_a_model_mismatch(tmp_path) -> None:
    text = BASE.replace("list = minslack, prio-minslack, alpha-minslack, constant",
                        "list = optimal")
    cfg = _config(tmp_path, text, "opt.cfg")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    cache = tmp_path / "policies" / "tiny.policy"
    lines = cache.read_text(encoding="ascii").splitlines()
    cache.write_text("\n".join(lines[:-1]) + "\n", encoding="ascii")
    assert main(["simulate", "--config", str(cfg)]) == 4


def test_stale_policy_cache_parameters_are_a_model_mismatch(tmp_path) -> None:
    text = BASE.replace("list = minslack, prio-minslack, alpha-minslack, constant",
                        "list = optimal")
    cfg = _config(tmp_path, text, "opt.cfg")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0
    retuned = _config(tmp_path, text.replace("tolerance = 1e-9", "tolerance = 1e-6"), "re.cfg")
    assert main(["simulate", "--config", str(retuned)]) == 4


def test_cached_policy_for_other_costs_is_a_model_mismatch(tmp_path) -> None:
    # Same cap, window, discount and tolerance, so the policy header matches;
    # only the cost points differ, and the cached values do not solve them.
    text = BASE.replace("list = minslack, prio-minslack, alpha-minslack, constant",
                        "list = optimal")
    cfg = _config(tmp_path, text, "opt.cfg")
    assert main(["simulate", "--config", str(cfg)]) == 0
    cache = tmp_path / "policies" / "tiny.policy"
    before = cache.read_bytes()
    assert main(["simulate", "--config", str(cfg)]) == 0  # a cache hit that fits
    costs = _config(tmp_path, text.replace("points = 1:0.9, 10:0.1", "points = 1:0.5, 20:0.5"),
                    "costs.cfg")
    assert main(["simulate", "--config", str(costs)]) == 4
    assert cache.read_bytes() == before


def test_cached_policy_with_a_non_greedy_action_is_a_model_mismatch(tmp_path, capsys) -> None:
    # The values stay a Bellman fixed point; one action is the runner-up of
    # a state whose best action leads it by far more than the tolerance.
    text = BASE.replace("list = minslack, prio-minslack, alpha-minslack, constant",
                        "list = optimal")
    cfg = _config(tmp_path, text, "opt.cfg")
    assert main(["simulate", "--config", str(cfg)]) == 0
    cache = tmp_path / "policies" / "tiny.policy"
    q = action_values(cli._model(load_experiment(cfg)), load_policy(cache).values)
    ordered = np.sort(q, axis=1)
    lead = np.where(np.isfinite(ordered[:, -2]), ordered[:, -1] - ordered[:, -2], -np.inf)
    index = int(np.argmax(lead))
    assert lead[index] > 1e3 * 1e-9
    lines = cache.read_text(encoding="ascii").splitlines()
    cells = lines[3 + index].split(",")
    cells[-2] = str(int(np.argsort(q[index])[-2]))
    lines[3 + index] = ",".join(cells)
    cache.write_text("\n".join(lines) + "\n", encoding="ascii")
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"model mismatch: cached policy {cache}")


# =============================================================
# solve
# =============================================================


def test_solve_writes_then_check_verifies(tmp_path, capsys) -> None:
    cfg = _config(tmp_path)
    target = tmp_path / "policies" / "tiny.policy"
    assert main(["solve", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("states=")
    assert target.exists()

    assert main(["solve", "--config", str(cfg), "--check"]) == 0
    assert "check ok" in capsys.readouterr().out

    data = bytearray(target.read_bytes())
    data[-2] = ord("9") if data[-2] != ord("9") else ord("8")
    target.write_bytes(bytes(data))
    assert main(["solve", "--config", str(cfg), "--check"]) == 5


def test_solve_check_without_file_is_a_config_error(tmp_path) -> None:
    cfg = _config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--check"]) == 2


def test_solve_zero_capacity_model(tmp_path, capsys) -> None:
    text = BASE.replace("windows = 2:3", "windows = 0:1").replace("cap = 3", "cap = 0")
    cfg = _config(tmp_path, text, "zero.cfg")
    assert main(["solve", "--config", str(cfg)]) == 0
    assert "states=1 " in capsys.readouterr().out
    body = (tmp_path / "policies" / "tiny.policy").read_text(encoding="ascii").splitlines()
    assert len(body) == 4
    # The single state can only ever pick action 0.
    assert body[3].split(",")[-2] == "0"


def test_solve_without_policy_section(tmp_path) -> None:
    text = BASE[: BASE.index("[policy]")]
    cfg = _config(tmp_path, text, "nopolicy.cfg")
    assert main(["solve", "--config", str(cfg)]) == 2


def test_solve_refuses_stdout_for_its_policy_file(tmp_path, monkeypatch, capsys) -> None:
    # solve writes a file, so "-" is refused, not taken as a file name.
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--config", str(_config(tmp_path)), "--out", "-"]) == 2
    assert capsys.readouterr().err.startswith("config error: cannot write policy file -")
    assert not (tmp_path / "-").exists() and not (tmp_path / "policies").exists()
    with pytest.raises(SystemExit):
        main(["solve", "--help"])
    assert "stdout" not in capsys.readouterr().out


# =============================================================
# histogram
# =============================================================


def test_histogram_density_normalizes(tmp_path, capsys) -> None:
    text = BASE.replace("trials = 3", "trials = 40")
    cfg = _config(tmp_path, text)
    assert main(["histogram", "--config", str(cfg)]) == 0
    rows = _rows(capsys.readouterr().out)
    assert ",".join(rows[0]) == HISTOGRAM_HEADER
    by_mech: dict[str, float] = {}
    for mech, left, right, count, density, log_density in rows[1:]:
        width = float(right) - float(left)
        assert width == pytest.approx(0.05)
        assert float(log_density) == pytest.approx(math.log(float(density)))
        by_mech[mech] = by_mech.get(mech, 0.0) + float(density) * 0.05
    assert set(by_mech) == {"minslack", "prio-minslack", "alpha-minslack(0.9)", "constant(1)"}
    for total in by_mech.values():
        assert total == pytest.approx(1.0, abs=1e-9)


def test_histogram_bin_width_too_fine_for_the_values_exits_2(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, BASE.replace("bin_width = 0.05", "bin_width = 1e-300"))
    assert main(["histogram", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "bin width 1e-300 cannot bin value" in captured.err
    assert captured.out == ""


def test_histogram_rejects_steady_state(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, STEADY, "steady.cfg")
    assert main(["histogram", "--config", str(cfg)]) == 2
    assert "histograms are defined for the discounted metric" in capsys.readouterr().err


# =============================================================
# policy-diff
# =============================================================


def test_policy_diff_reports_structure(tmp_path, capsys) -> None:
    cfg = _config(tmp_path)
    assert main(["solve", "--config", str(cfg)]) == 0
    capsys.readouterr()
    policy_file = tmp_path / "policies" / "tiny.policy"
    assert main(["policy-diff", str(policy_file)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("states: ")
    n = int(lines[0].split(": ")[1])
    hist_lines = [ln for ln in lines if ln.startswith("diff=")]
    assert sum(int(ln.split(": ")[1]) for ln in hist_lines) == n
    idx = lines.index("states with |diff| >= 2:")
    assert lines[idx + 1] == "index,w_low,w_high,h1,h2,optimal,greedy"
    listed = len(lines) - idx - 2
    big = sum(
        int(ln.split(": ")[1])
        for ln in hist_lines
        if abs(int(ln.split(":")[0].split("=")[1])) >= 2
    )
    assert listed == big


def test_policy_diff_lists_the_states_far_from_greedy(tmp_path, capsys) -> None:
    # Budget 3 over 4 periods at cap 5: one state's optimal action is two
    # below greedy slack filling.
    text = BASE.replace("windows = 2:3", "windows = 3:4").replace("cap = 3", "cap = 5")
    assert main(["solve", "--config", str(_config(tmp_path, text))]) == 0
    capsys.readouterr()
    policy_file = tmp_path / "policies" / "tiny.policy"
    assert main(["policy-diff", str(policy_file)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "diff=2: 1" in lines
    idx = lines.index("states with |diff| >= 2:")
    assert lines[idx + 1] == "index,w_low,w_high,h1,h2,h3,optimal,greedy"
    rows = lines[idx + 2:]
    assert len(rows) == 1
    *state, optimal, greedy = rows[0].split(",")
    # The policy row with that index holds the same state and action.
    policy_row = policy_file.read_text(encoding="ascii").splitlines()[3 + int(state[0])]
    assert policy_row.split(",")[:-1] == [*state, optimal]
    assert int(greedy) - int(optimal) >= 2


def test_policy_diff_bad_file_is_a_config_error(tmp_path, capsys) -> None:
    missing = tmp_path / "nope.policy"
    assert main(["policy-diff", str(missing)]) == 2
    garbled = tmp_path / "garbled.policy"
    garbled.write_text("not,a,policy\n", encoding="ascii")
    assert main(["policy-diff", str(garbled)]) == 2
    assert main(["policy-diff"]) == 2

    # A row with a non-numeric index, action or value, read by policy-diff
    # and as a cached policy.
    cfg = _config(tmp_path, BASE.replace("list = minslack,", "list = optimal, minslack,"))
    assert main(["solve", "--config", str(cfg)]) == 0
    policy = tmp_path / "policies" / "tiny.policy"
    lines = policy.read_text(encoding="ascii").splitlines()
    for cell, bad in ((0, "x0"), (-2, "q"), (-1, "zz")):
        cells = lines[3].split(",")
        cells[cell] = bad
        row = ",".join(cells)
        policy.write_text("\n".join([*lines[:3], row, *lines[4:]]) + "\n", encoding="ascii")
        capsys.readouterr()
        assert main(["policy-diff", str(policy)]) == 2
        assert main(["simulate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(str(policy) in e and repr(row) in e for e in err)


def test_policy_diff_rejects_a_bad_state_header_or_row_width(tmp_path, capsys) -> None:
    assert main(["solve", "--config", str(_config(tmp_path))]) == 0
    lines = (tmp_path / "policies" / "tiny.policy").read_text(encoding="ascii").splitlines()
    header = lines[2].replace(",action,", ",act,")
    wide = lines[3].replace(",", ",0,", 1)
    for bad, named in (([*lines[:2], header, *lines[3:]], "bad state header"),
                       ([*lines[:3], wide, *lines[4:]], "malformed policy row")):
        policy = tmp_path / "bad.policy"
        policy.write_text("\n".join(bad) + "\n", encoding="ascii")
        capsys.readouterr()
        assert main(["policy-diff", str(policy)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and named in err[0]


# =============================================================
# verify and exit codes
# =============================================================


def test_verify_reports_all_pass(capsys) -> None:
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(ln.startswith("PASS ") for ln in lines)


def test_python_dash_m_runs_verify_from_the_source_tree() -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "exitqueue", "verify"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 5 and all(ln.startswith("PASS ") for ln in lines)


def test_verify_reports_a_failed_check(monkeypatch, capsys) -> None:
    # A schedule that processes far more in period 1 than greedy slack
    # filling ever does.
    monkeypatch.setattr(cli, "brute_force_schedules", lambda reqs, cs, horizon: [(99,)])
    assert main(["verify"]) == 5
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert [ln for ln in lines if not ln.startswith("PASS ")] == [
        "FAIL greedy prefix dominance (100 instances) (case 0: dominated by (99,))"
    ]
    monkeypatch.undo()

    # A model whose last arrival outcome lost its mass.
    def lossy(*args, **kwargs):
        model = mdp.build_model(*args, **kwargs)
        model.table.planes[-1] = 0.0
        return model

    monkeypatch.setattr(cli, "build_model", lossy)
    assert main(["verify"]) == 5
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert [ln for ln in lines if not ln.startswith("PASS ")] == ["FAIL transition rows sum to 1"]


@pytest.mark.parametrize(
    ("subcommand", "onto_directory"),
    [("simulate", False), ("simulate", True), ("solve", True), ("histogram", False)],
    ids=["simulate-into-missing-directory", "simulate-onto-directory", "solve-onto-directory",
         "histogram-into-missing-directory"],
)
def test_unwritable_out_is_a_config_error(tmp_path, monkeypatch, capsys, subcommand,
                                         onto_directory) -> None:
    # Reported before any work is done, as one stderr line that names the path.
    def refuse(*a, **k):
        raise AssertionError("the run started")

    out = tmp_path / "none" / "x.csv"
    if onto_directory:
        out = tmp_path / "out"
        out.mkdir()
    monkeypatch.setattr(cli, "monte_carlo", refuse)
    monkeypatch.setattr(cli, "value_iteration", refuse)
    config = BASE.replace("list = minslack,", "list = optimal, minslack,")
    args = ["--config", str(_config(tmp_path, config)), "--out", str(out)]
    assert main([subcommand, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write") and err.count("\n") == 1
    assert str(out) in err
    assert not (tmp_path / "policies" / "tiny.policy").exists()


def test_simulate_rejects_check(tmp_path) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(_config(tmp_path)), "--check"])
    assert exc.value.code == 2


def test_missing_config_is_a_config_error(tmp_path) -> None:
    assert main(["simulate", "--config", str(tmp_path / "none.cfg")]) == 2


def test_malformed_ini_is_a_config_error(tmp_path) -> None:
    bad = tmp_path / "broken.cfg"
    bad.write_text("this is not ini at all\n", encoding="utf-8")
    assert main(["simulate", "--config", str(bad)]) == 2


def test_optimal_without_policy_section_is_a_config_error(tmp_path, capsys) -> None:
    text = BASE[: BASE.index("[policy]")].replace("list = minslack,", "list = optimal, minslack,")
    assert main(["simulate", "--config", str(_config(tmp_path, text))]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: mechanism 'optimal' needs a [policy] section"]


def test_unknown_mechanism_is_a_config_error(tmp_path) -> None:
    text = BASE.replace("list = minslack, prio-minslack, alpha-minslack, constant",
                        "list = fifo")
    cfg = _config(tmp_path, text, "bad.cfg")
    assert main(["simulate", "--config", str(cfg)]) == 2


def test_solver_failure_maps_to_exit_three(tmp_path, monkeypatch) -> None:
    cfg = _config(tmp_path)

    def explode(*args, **kwargs):
        raise NonConvergence("did not converge")

    monkeypatch.setattr(cli, "value_iteration", explode)
    assert main(["solve", "--config", str(cfg)]) == 3


# =============================================================
# Bundled experiments, pinned by hash
# =============================================================

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# SHA-256 of what each command writes for the bundled configs, solved into
# an empty policy cache: the policy files of `solve`, the stdout of
# `simulate` (200 trials for discounted configs, 1 for steady-state ones)
# and of `histogram` (200 trials). Any change to the model build, the
# solver, either engine or the CSV format moves one of them.
OUTPUT_SHA256 = {
    "solve gamma85": "7cac556267ca0ddfd7ed1fb46351b3bce151d26dc9e9f91c6e81ac0e3c6d135c",
    "solve gamma90": "f3c202b913d0adb47abdb206cb2f80d681b027ca1a4292e962b5a9009c9dd4ab",
    "simulate arrivals_0_1_10": "be2496cd3ac68ea44d036a00a6766a8e3c817bbd16b9b20d0cf96d47a7985835",
    "simulate arrivals_0_1_2": "00eaa180a6b2012a9b3d4b8c685788297b7f3dee7b383e082a3632eb38421fd0",
    "simulate churn_fraction": "2515928040e0a09a90e022e629f1a559c8b1154ab2d13d322d7f9750453ab379",
    "simulate costs_1_20": "a6454a962f33040b6db749c82ab6ae4afa72d37c6eeba86af82e5312361ab63b",
    "simulate costs_1_5": "cd9ff273e94c9257dae3d44200712d5cb8c96ed68d8a940606bb028d0030b4a6",
    "simulate gamma85": "8054a5f9c6c65e00a8126d2f5e7646a54ce76ac91dcd9f70d1ca5a6fddb70525",
    "simulate gamma90": "a42e46e66dac2a70a0aeee0d7281d36610501968df156410c854f6cf6a0652de",
    "simulate gamma95": "8a4d7d924dd2f4d1d2d449796cc80fcc76cf33167d151f84684aac86d0dd69d9",
    "simulate steady_exponential": "9843be4c6cfe934bfb2036609ae7cd2565c3242180fd4ceca009f521b85e0b54",
    "simulate steady_pareto": "37dd9c46fa463ebe30c06eb6e37217ffafcc541ae2b97d6b4f0106e17ec021e4",
    "simulate steady_uniform": "25dec390a1fd83c79908077d05f9995c54dee5f116a623590726404a46fa2535",
    "simulate tail_histogram": "a42e46e66dac2a70a0aeee0d7281d36610501968df156410c854f6cf6a0652de",
    "histogram tail_histogram": "d626b160e5f12db22a97689b79a1f3cd4c9ffad7fcb74fb242a0098d3fd47e11",
}


def test_bundled_outputs_match_pinned_hashes(tmp_path, capsys) -> None:
    configs = tmp_path / "configs"
    configs.mkdir()
    for cfg in CONFIGS.glob("*.cfg"):
        shutil.copy(cfg, configs / cfg.name)

    def run(*args: str) -> bytes:
        assert main(list(args)) == 0
        return capsys.readouterr().out.encode("utf-8")

    digests = {}
    for name in ("gamma85", "gamma90"):
        run("solve", "--config", str(configs / f"{name}.cfg"))
        policy = (configs / "policies" / f"{name}.policy").read_bytes()
        digests[f"solve {name}"] = hashlib.sha256(policy).hexdigest()
    for cfg in sorted(configs.glob("*.cfg")):
        trials = "1" if load_experiment(cfg).metric == "steady-state" else "200"
        out = run("simulate", "--config", str(cfg), "--trials", trials)
        digests[f"simulate {cfg.stem}"] = hashlib.sha256(out).hexdigest()
    out = run("histogram", "--config", str(configs / "tail_histogram.cfg"), "--trials", "200")
    digests["histogram tail_histogram"] = hashlib.sha256(out).hexdigest()
    assert digests == OUTPUT_SHA256


# SHA-256 of what `policy-diff` writes for the solved gamma90 policy and for
# the window-4 policy of test_policy_diff_lists_the_states_far_from_greedy.
POLICY_DIFF_SHA256 = {
    "gamma90": "7232378975546e0cd36d4ea17e9e9c9bdc955967cc5f5603ac55d9276af25a38",
    "tiny window 4": "18708e6500d5918a49e1c4775443b38d9930fce8f6c0b6b2e7db9a22f1e631f3",
}


def test_policy_diff_output_matches_pinned_hashes(tmp_path, capsys) -> None:
    gamma90 = tmp_path / "gamma90.cfg"
    shutil.copy(CONFIGS / "gamma90.cfg", gamma90)
    tiny = BASE.replace("windows = 2:3", "windows = 3:4").replace("cap = 3", "cap = 5")
    digests = {}
    for name, cfg in (("gamma90", gamma90), ("tiny window 4", _config(tmp_path, tiny))):
        assert main(["solve", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["policy-diff", str(load_experiment(cfg).policy.path)]) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digests == POLICY_DIFF_SHA256


# =============================================================
# Config fuzzing
# =============================================================

# Each replaces one key's value; None drops the key.
MUTATIONS = (None, "abc", "0", "-1", "inf", "nan", "1/0", "")


def _small(cfg: Path, policy: Path) -> configparser.ConfigParser:
    """A bundled config shrunk to 30 steps, 2 trials and a cap-3 policy."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(cfg, encoding="utf-8")
    parser["experiment"].update(steps="30", trials="2")
    if "burn_in" in parser["experiment"]:
        parser["experiment"]["burn_in"] = "10"
    if parser.has_section("policy"):
        parser["policy"].update(cap="3", path=str(policy))
    return parser


def test_config_fuzz_exits_cleanly(tmp_path, capsys) -> None:
    """Bundled configs with each key dropped or replaced by a bad value: no
    exception escapes main, the exit code is documented, a failure prints
    one stderr line naming the section or key, and a success has no nan.

    Every bundled config runs unmutated first, which also solves its policy
    into a cache that its mutations share. Configs with the same sections
    and keys take the same code paths, so one of each is mutated.
    """
    shapes: dict[tuple, Path] = {}
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        parser = _small(cfg, tmp_path / f"{cfg.stem}.policy")
        path = tmp_path / f"{cfg.stem}.cfg"
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)
        command = "histogram" if "bin_width" in parser["experiment"] else "simulate"
        assert main([command, "--config", str(path)]) == 0, cfg.name
        shapes.setdefault(tuple((s, tuple(parser[s])) for s in parser.sections()), cfg)
    capsys.readouterr()

    problems = []
    case = 0
    for cfg in shapes.values():
        policy = tmp_path / f"{cfg.stem}.policy"
        base = _small(cfg, policy)
        command = "histogram" if "bin_width" in base["experiment"] else "simulate"
        for section in base.sections():
            for key in base[section]:
                for value in MUTATIONS:
                    case += 1
                    parser = _small(cfg, policy)
                    if value is None:
                        del parser[section][key]
                    else:
                        parser[section][key] = value
                    path = tmp_path / str(case) / "x.cfg"
                    path.parent.mkdir()
                    with open(path, "w", encoding="utf-8") as fh:
                        parser.write(fh)
                    what = f"{cfg.stem} [{section}] {key} = {value!r}"
                    try:
                        code = main([command, "--config", str(path)])
                    except Exception as exc:  # noqa: BLE001 - the failure under test
                        problems.append(f"{what}: {type(exc).__name__}: {exc}")
                        capsys.readouterr()
                        continue
                    out, err = capsys.readouterr()
                    err = err.replace(str(tmp_path), "")
                    if code not in (0, 2, 3, 4, 5):
                        problems.append(f"{what}: exit {code}")
                    elif code == 0 and "nan" in out:
                        problems.append(f"{what}: nan in output")
                    elif code != 0 and (
                        err.count("\n") != 1
                        or not re.search(rf"\[{section}\]|\b{key}\b", err)
                    ):
                        problems.append(f"{what}: exit {code}, stderr {err!r}")
    assert len(shapes) == 6 and case > 500
    assert problems == []
