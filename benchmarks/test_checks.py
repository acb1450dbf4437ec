"""The benchmark's output checks pass on the program's outputs and fail on wrong ones.

Small versions of each workload run in a temporary directory; each check
must accept the real output and reject one deliberately wrong variant.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from exitqueue import mechanisms  # noqa: E402
from exitqueue.cli import load_experiment, main  # noqa: E402
from exitqueue.mdp import action_values, build_model, load_policy  # noqa: E402

SMALL_POLICY_CONFIG = """\
[experiment]
metric = discounted
discount = 0.9
steps = 60
trials = 200
[constraints]
windows = 2:3
[arrivals]
counts = 0:0.5, 1:0.4, 5:0.1
[values]
points = 1:0.9, 10:0.1
[mechanisms]
list = optimal, prio-minslack
[policy]
cap = 4
path = policies/small.policy
"""

SMALL_STEADY_CONFIG = """\
[experiment]
metric = steady-state
steps = 400
burn_in = 50
[constraints]
windows = 5:5
[arrivals]
counts = 0:0.5, 1:0.4, 5:0.1
[values]
kind = pareto
shape = 2
scale = 5
[mechanisms]
list = constant, minslack, prio-minslack, alpha-minslack
alpha = 0.9
constant_sort = fcfs
"""


def simulate(tmp_path: Path, text: str, trials: int, seed: int) -> tuple[str, checks.Experiment]:
    config = tmp_path / "exp.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    args = ["simulate", "--config", str(config), "--trials", str(trials), "--seed", str(seed)]
    assert main(args + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8"), checks.read_experiment(config)


def shift_mean(csv: str, mechanism: str, delta: float) -> str:
    lines = csv.splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == mechanism:
            cells[2] = repr(float(cells[2]) + delta)
            lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_policy_check_rejects_one_changed_action(tmp_path: Path) -> None:
    csv, exp = simulate(tmp_path, SMALL_POLICY_CONFIG, trials=20, seed=0)
    path = tmp_path / "policies" / "small.policy"
    text = path.read_text(encoding="ascii")
    model = checks.TwoClassModel.from_experiment(exp)
    assert checks.check_policy(text, model) == []

    # Change the action of a state whose best action leads the runner-up
    # by far more than the tolerance.
    arrival = tracing.arrival_model(load_experiment(tmp_path / "exp.cfg"))
    q = action_values(build_model(arrival, 4, 2, 3, 0.9), load_policy(path).values)
    ordered = np.sort(q, axis=1)
    lead = np.where(np.isfinite(ordered[:, -2]), ordered[:, -1] - ordered[:, -2], -np.inf)
    index = int(np.argmax(lead))
    assert lead[index] > 1e3 * model.tolerance
    lines = text.splitlines()
    cells = lines[3 + index].split(",")
    cells[-2] = str(int(np.argsort(q[index])[-2]))
    lines[3 + index] = ",".join(cells)
    problems = checks.check_policy("\n".join(lines) + "\n", model)
    assert any("non-greedy" in p for p in problems)


def test_policy_check_rejects_unconverged_values(tmp_path: Path) -> None:
    simulate(tmp_path, SMALL_POLICY_CONFIG, trials=20, seed=0)
    text = (tmp_path / "policies" / "small.policy").read_text(encoding="ascii")
    lines = text.splitlines()
    cells = lines[10].split(",")
    cells[-1] = f"{float(cells[-1]) + 1e-6:.12e}"
    lines[10] = ",".join(cells)
    exp = checks.read_experiment(tmp_path / "exp.cfg")
    problems = checks.check_policy("\n".join(lines) + "\n", checks.TwoClassModel.from_experiment(exp))
    assert any("Bellman residual" in p for p in problems)


def test_flagship_csv_check_rejects_a_mean_moved_by_1e_9(tmp_path: Path) -> None:
    # The flagship model, over fewer and shorter trials.
    text = run.FLAGSHIP_CONFIG.read_text(encoding="utf-8").replace("steps = 350", "steps = 100")
    csv, exp = simulate(tmp_path, text, trials=2000, seed=7)
    policy = (tmp_path / run.POLICY).read_text(encoding="ascii")
    assert checks.check_flagship_csv(csv, exp, policy, 2000, 7) == []
    for name in ("optimal", "prio-minslack"):
        assert checks.check_flagship_csv(shift_mean(csv, name, 1e-9), exp, policy, 2000, 7)
    assert checks.check_flagship_csv(csv, exp, policy, 2000, 8)


def test_steady_csv_check_rejects_cheapest_first(tmp_path: Path, monkeypatch) -> None:
    csv, exp = simulate(tmp_path, SMALL_STEADY_CONFIG, trials=2, seed=3)
    assert checks.check_steady_csv(csv, exp, 2, 3) == []
    assert checks.check_steady_csv(shift_mean(csv, "minslack", 1e-9), exp, 2, 3)

    def cheapest_first(waiting, sort_key):
        return sorted(mechanisms._fcfs(waiting), key=lambda r: r.cost)

    monkeypatch.setattr(mechanisms, "_by_cost_desc", cheapest_first)
    wrong, _ = simulate(tmp_path, SMALL_STEADY_CONFIG, trials=2, seed=3)
    problems = checks.check_steady_csv(wrong, exp, 2, 3)
    assert {p.split(":")[0] for p in problems} == {"prio-minslack", "alpha-minslack(0.9)"}


def test_fraction_csv_check_rejects_prio_row_unlike_minslack(tmp_path: Path) -> None:
    text = run.CHURN_CONFIG.replace("steps = 350", "steps = 120")
    csv, exp = simulate(tmp_path, text, trials=4, seed=11)
    assert checks.check_fraction_csv(csv, exp, 4, 11) == []
    assert checks.check_fraction_csv(shift_mean(csv, "constant(1)", 1e-9), exp, 4, 11)

    lines = csv.splitlines()
    prio = next(i for i, line in enumerate(lines) if line.startswith("prio-minslack,"))
    cells = lines[prio].split(",")
    cells[3] = repr(float(cells[3]) * 2)  # stderr
    lines[prio] = ",".join(cells)
    problems = checks.check_fraction_csv("\n".join(lines) + "\n", exp, 4, 11)
    assert any("differs from minslack" in p for p in problems)


def test_fraction_workload_capacity_stays_above_arrival_rate(tmp_path: Path) -> None:
    path = tmp_path / "churn.cfg"
    path.write_text(run.CHURN_CONFIG, encoding="utf-8")
    exp = checks.read_experiment(path)
    low = exp.initial_stake - max(exp.count_points) * exp.steps
    mean_arrivals = sum(k * p for k, p in zip(exp.count_points, exp.count_probs))
    for delta, window in exp.windows:
        assert (delta.numerator * low) // delta.denominator / window > mean_arrivals


@pytest.mark.parametrize("section", ["end_to_end", "per_layer", "workloads"])
def test_benchmark_json_names_what_the_benchmark_reports(section: str) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec[section]]
    expected = {
        "end_to_end": ["setup_s", "solve_s", "trial_steps_per_s", "peak_rss_mb"],
        "per_layer": list(tracing.PER_LAYER),
        "workloads": list(run.WORKLOADS),
    }[section]
    assert names == expected
