"""Independent checks of exitqueue's outputs, used by the benchmark.

Nothing here imports exitqueue. Each oracle rebuilds its answer from the
experiment's parameters with its own code (config read with configparser,
arrival streams drawn with numpy, queue dynamics written out again), so a
fault in the program cannot hide in a helper the check shares with it.

Every check returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import configparser
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

SIMULATE_HEADER = "mechanism,metric,mean,stderr,p001,p01,p50,trials,steps,gamma,seed"


# =============================================================
# Experiment parameters
# =============================================================


@dataclass(frozen=True)
class Experiment:
    """The parts of an experiment config the oracles need."""

    steps: int
    trials: int
    discount: float | None
    burn_in: int
    fraction: bool
    windows: tuple[tuple[Fraction, int], ...]
    initial_stake: int | None
    count_points: tuple[int, ...]
    count_probs: tuple[float, ...]
    values: dict[str, str]
    mechanisms: tuple[str, ...]
    alpha: str
    rate: int
    constant_sort: str
    policy: dict[str, str] | None


def _pairs(raw: str) -> list[tuple[str, str]]:
    return [tuple(s.strip() for s in item.split(":", 1)) for item in raw.split(",") if item.strip()]


def read_experiment(path: str | Path) -> Experiment:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(path, encoding="utf-8")
    exp, cons, mech = parser["experiment"], parser["constraints"], parser["mechanisms"]
    counts = _pairs(parser["arrivals"]["counts"])
    return Experiment(
        steps=int(exp["steps"]),
        trials=int(exp.get("trials", "1")),
        discount=float(exp["discount"]) if "discount" in exp else None,
        burn_in=int(exp.get("burn_in", "0")),
        fraction=cons.get("mode", "absolute").strip() == "fraction",
        windows=tuple((Fraction(d), int(w)) for d, w in _pairs(cons["windows"])),
        initial_stake=int(cons["initial_stake"]) if "initial_stake" in cons else None,
        count_points=tuple(int(k) for k, _ in counts),
        count_probs=tuple(float(p) for _, p in counts),
        values=dict(parser["values"]),
        mechanisms=tuple(t.strip() for t in mech["list"].split(",") if t.strip()),
        alpha=mech.get("alpha", "0.9").strip(),
        rate=int(mech.get("rate", "1")),
        constant_sort=mech.get("constant_sort", "cost").strip(),
        policy=dict(parser["policy"]) if parser.has_section("policy") else None,
    )


def _points(exp: Experiment) -> tuple[tuple[float, ...], tuple[float, ...]]:
    pairs = _pairs(exp.values["points"])
    return tuple(float(v) for v, _ in pairs), tuple(float(p) for _, p in pairs)


def draw_arrivals(exp: Experiment, seed: int, cost_sampler) -> tuple[np.ndarray, np.ndarray]:
    """Per-period counts and the flat cost array of one trial.

    Two bulk draws from ``default_rng(seed)``, counts then costs: the stream
    the program documents for trial ``seed``.
    """
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(exp.count_points), size=exp.steps, p=np.asarray(exp.count_probs))
    counts = np.asarray(exp.count_points, dtype=np.int64)[idx]
    return counts, cost_sampler(rng, int(counts.sum()))


def discrete_costs(exp: Experiment):
    points, probs = _points(exp)
    pts = np.asarray(points)
    return lambda rng, n: pts[rng.choice(len(points), size=n, p=np.asarray(probs))]


def pareto_costs(exp: Experiment):
    shape, scale = float(exp.values["shape"]), float(exp.values["scale"])
    return lambda rng, n: scale * (1.0 + rng.pareto(shape, size=n))


def discounted(charges, gamma: float) -> float:
    """(1 - gamma) * sum_t gamma^t * charge, weights by repeated multiply."""
    terms = []
    weight = gamma
    for c in charges:
        terms.append(weight * c)
        weight *= gamma
    return (1.0 - gamma) * math.fsum(terms)


# =============================================================
# CSV rows
# =============================================================


def parse_simulate_csv(text: str) -> dict[str, dict[str, str]]:
    lines = text.splitlines()
    if not lines or lines[0] != SIMULATE_HEADER:
        raise ValueError(f"unexpected CSV header {lines[:1]}")
    keys = SIMULATE_HEADER.split(",")
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(keys):
            raise ValueError(f"malformed CSV row {line!r}")
        rows[cells[0]] = dict(zip(keys, cells))
    return rows


def check_rows(rows, names, *, trials: int, steps: int, gamma: float | None, seed: int) -> list[str]:
    """Quantile order, nonpositive metric, and the echoed run parameters."""
    problems = []
    if list(rows) != list(names):
        problems.append(f"mechanisms {list(rows)}, expected {list(names)}")
    want = (str(trials), str(steps), "" if gamma is None else repr(float(gamma)), str(seed))
    for name, row in rows.items():
        p001, p01, p50 = (float(row[k]) for k in ("p001", "p01", "p50"))
        if not p001 <= p01 <= p50 <= 0.0:
            problems.append(f"{name}: quantiles out of order: {p001}, {p01}, {p50}")
        got = (row["trials"], row["steps"], row["gamma"], row["seed"])
        if got != want:
            problems.append(f"{name}: echoes trials,steps,gamma,seed {got}, expected {want}")
    return problems


def check_means(rows, want: dict[str, float], rel: float = 0.0) -> list[str]:
    """Each row's mean against the oracle: bit for bit when rel is 0."""
    problems = []
    for name, value in want.items():
        if name not in rows:
            problems.append(f"{name}: row missing")
            continue
        got = float(rows[name]["mean"])
        if abs(got - value) > rel * abs(value):
            problems.append(f"{name}: mean {got!r}, oracle {value!r}")
    return problems


# =============================================================
# Flagship: the policy file
# =============================================================


@dataclass(frozen=True)
class TwoClassModel:
    """The decision model a [policy] section describes."""

    counts: tuple[tuple[int, float], ...]
    high_prob: float
    cost_low: float
    cost_high: float
    cap: int
    budget: int
    window: int
    discount: float
    tolerance: float

    @classmethod
    def from_experiment(cls, exp: Experiment) -> "TwoClassModel":
        (budget, window), = ((int(d), w) for d, w in exp.windows)
        points, probs = _points(exp)
        lo, hi = sorted(points)
        return cls(
            counts=tuple(zip(exp.count_points, exp.count_probs)),
            high_prob=probs[points.index(hi)],
            cost_low=lo,
            cost_high=hi,
            cap=int(exp.policy.get("cap", "10")),
            budget=budget,
            window=window,
            discount=exp.discount,
            tolerance=float(exp.policy.get("tolerance", "1e-9")),
        )

    def states(self) -> list[tuple[int, int, tuple[int, ...]]]:
        hists = [
            h
            for h in itertools.product(range(self.budget + 1), repeat=self.window - 1)
            if sum(h) <= self.budget
        ]
        return [
            (wl, wh, h) for wl in range(self.cap + 1) for wh in range(self.cap + 1) for h in hists
        ]

    def successors(self, state, action: int) -> tuple[float, dict]:
        """Reward and merged successor distribution, highs served first."""
        wl, wh, h = state
        q = self.high_prob
        high_left = max(wh - action, 0)
        low_left = max(wl - max(action - wh, 0), 0)
        reward = -(self.cost_high * high_left + self.cost_low * low_left)
        nh = ((action,) + h[:-1]) if self.window > 1 else ()
        out: dict = {}
        for k, pk in self.counts:
            for j in range(k + 1):
                p = pk * math.comb(k, j) * q**j * (1 - q) ** (k - j)
                if p == 0.0:
                    continue
                ns = (min(low_left + k - j, self.cap), min(high_left + j, self.cap), nh)
                out[ns] = out.get(ns, 0.0) + p
        return reward, out


def parse_policy(text: str) -> tuple[list[str], dict]:
    """Header fields and {state: (action, value)} of a policy file."""
    lines = text.splitlines()
    if lines[0] != "cap,budget,gamma,tolerance":
        raise ValueError(f"bad policy header {lines[0]!r}")
    table = {}
    for line in lines[3:]:
        cells = line.split(",")
        state = (int(cells[1]), int(cells[2]), tuple(int(x) for x in cells[3:-2]))
        if state in table:
            raise ValueError(f"duplicate policy row {state}")
        table[state] = (int(cells[-2]), float(cells[-1]))
    return lines[1].split(","), table


def check_policy(text: str, model: TwoClassModel) -> list[str]:
    """Bellman residual, legal actions and greedy actions of a policy file.

    The file stores values to 13 significant digits, so the residual may
    exceed the solver tolerance by that rounding, carried through one backup.
    """
    header, table = parse_policy(text)
    want = [str(model.cap), str(model.budget), repr(model.discount), repr(model.tolerance)]
    if header != want:
        return [f"policy header {header}, expected {want}"]
    states = model.states()
    if set(table) != set(states):
        return [f"policy covers {len(table)} states, the model has {len(states)}"]
    index = {s: i for i, s in enumerate(states)}
    actions = np.asarray([table[s][0] for s in states])
    values = np.asarray([table[s][1] for s in states])
    problems = [
        f"illegal action {a} at {s}"
        for s, a in zip(states, actions.tolist())
        if not 0 <= a <= model.budget - sum(s[2])
    ]
    if problems:
        return problems

    pair_state, pair_action, pair_reward = [], [], []
    ent_pair, ent_dst, ent_prob = [], [], []
    for i, s in enumerate(states):
        for a in range(model.budget - sum(s[2]) + 1):
            reward, succ = model.successors(s, a)
            ent_pair.extend([len(pair_state)] * len(succ))
            ent_dst.extend(index[ns] for ns in succ)
            ent_prob.extend(succ.values())
            pair_state.append(i)
            pair_action.append(a)
            pair_reward.append(reward)
    pair_state = np.asarray(pair_state)
    pair_action = np.asarray(pair_action)
    ev = np.bincount(
        ent_pair, weights=np.asarray(ent_prob) * values[ent_dst], minlength=pair_state.size
    )
    q = np.asarray(pair_reward) + model.discount * ev
    qmax = np.full(len(states), -np.inf)
    np.maximum.at(qmax, pair_state, q)
    stored = pair_action == actions[pair_state]
    q_stored = np.empty(len(states))
    q_stored[pair_state[stored]] = q[stored]

    rounding = (1 + model.discount) * 5e-13 * float(np.max(np.abs(values))) + 1e-12
    residual = float(np.max(np.abs(qmax - values)))
    if residual > model.tolerance + rounding:
        problems.append(f"Bellman residual {residual:.3e} above tolerance {model.tolerance:g}")
    lag = qmax - q_stored
    bad = np.flatnonzero(lag > 10 * model.tolerance)
    if bad.size:
        s = states[int(bad[0])]
        problems.append(
            f"{bad.size} states store a non-greedy action, e.g. {s}: "
            f"action {table[s][0]} trails the best by {lag[bad[0]]:.3e}"
        )
    return problems


# =============================================================
# Flagship: count-level simulation of the CSV means
# =============================================================


def _policy_rule(table: dict, model: TwoClassModel):
    radix = model.budget + 1
    lookup = np.full((model.cap + 1, model.cap + 1, radix ** (model.window - 1)), -1, np.int64)
    for (wl, wh, h), (a, _) in table.items():
        lookup[wl, wh, sum(d * radix**j for j, d in enumerate(h))] = a
    weights = radix ** np.arange(model.window - 1, dtype=np.int64)

    def rule(wl, wh, hist):
        cap = model.cap
        return lookup[np.minimum(wl, cap), np.minimum(wh, cap), hist @ weights]

    return rule


def _slack_rule(model: TwoClassModel):
    return lambda wl, wh, hist: model.budget - hist.sum(axis=1)


def two_class_means(exp: Experiment, policy_text: str, trials: int, seed: int) -> dict:
    """Discounted means of 'optimal' and 'prio-minslack' over trials seed..seed+trials-1.

    Waiting counts per class, served highs first; the per-period charge is
    the cost of everything pending when the period opens.
    """
    model = TwoClassModel.from_experiment(exp)
    sampler = discrete_costs(exp)
    lows = np.empty((trials, exp.steps), np.int64)
    highs = np.empty((trials, exp.steps), np.int64)
    for i in range(trials):
        counts, costs = draw_arrivals(exp, seed + i, sampler)
        period = np.repeat(np.arange(exp.steps), counts)
        highs[i] = np.bincount(period[costs == model.cost_high], minlength=exp.steps)
        lows[i] = counts - highs[i]
    rules = {
        "optimal": _policy_rule(parse_policy(policy_text)[1], model),
        "prio-minslack": _slack_rule(model),
    }
    weights = exp.discount ** np.arange(1, exp.steps + 1)
    means = {}
    for name, rule in rules.items():
        wl = np.zeros(trials, np.int64)
        wh = np.zeros(trials, np.int64)
        hist = np.zeros((trials, model.window - 1), np.int64)
        charge = np.empty((trials, exp.steps))
        for t in range(exp.steps):
            wl += lows[:, t]
            wh += highs[:, t]
            charge[:, t] = -(model.cost_low * wl + model.cost_high * wh)
            take = np.minimum(rule(wl, wh, hist), wl + wh)
            done_high = np.minimum(take, wh)
            wh -= done_high
            wl -= take - done_high
            if model.window > 1:
                hist = np.concatenate([take[:, None], hist[:, :-1]], axis=1)
        per_trial = (1.0 - exp.discount) * (charge @ weights)
        means[name] = math.fsum(per_trial.tolist()) / trials
    return means


# =============================================================
# Steady state: heap-based trials
# =============================================================


def _round_half_down(x: Fraction) -> int:
    return math.ceil(x - Fraction(1, 2))


def mechanism_rules(exp: Experiment) -> dict[str, tuple[bool, object]]:
    """Mechanism name -> (costliest first?, capacity from slack)."""
    alpha = Fraction(exp.alpha)
    table = {
        "constant": (
            f"constant({exp.rate})",
            exp.constant_sort != "fcfs",
            lambda s: min(exp.rate, s),
        ),
        "minslack": ("minslack", False, lambda s: s),
        "prio-minslack": ("prio-minslack", True, lambda s: s),
        "alpha-minslack": (
            f"alpha-minslack({float(alpha):g})",
            True,
            lambda s: _round_half_down(alpha * s),
        ),
    }
    return {table[t][0]: table[t][1:] for t in exp.mechanisms}


def heap_steady_state(exp: Experiment, by_cost: bool, capacity, seed: int) -> float:
    """Steady-state disutility of one trial, queue kept as a heap."""
    (budget, window), = ((int(d), w) for d, w in exp.windows)
    counts, costs = draw_arrivals(exp, seed, pareto_costs(exp))
    costs = iter(costs.tolist())
    heap: list = []
    processed: list[int] = []
    terms: list[float] = []
    seq = 0
    for t in range(1, exp.steps + 1):
        for _ in range(int(counts[t - 1])):
            c = next(costs)
            heapq.heappush(heap, (-c if by_cost else 0.0, seq, t, c))
            seq += 1
        used = sum(processed[-(window - 1):]) if window > 1 else 0
        take = min(max(0, capacity(budget - used)), len(heap))
        for _ in range(take):
            _, _, arrived, c = heapq.heappop(heap)
            if t > exp.burn_in:
                terms.append(-c * (t - arrived))
        processed.append(take)
    terms.extend(-c * (exp.steps - arrived) for _, _, arrived, c in heap)
    return math.fsum(terms) / len(terms)


# =============================================================
# Fraction of stake: count-level FCFS with homogeneous costs
# =============================================================


def fraction_trial(exp: Experiment, capacity, seed: int) -> float:
    """Discounted metric of one trial with one cost level.

    With equal costs every mechanism serves a count, so the queue is a
    single number. Window capacity is floor(delta * stake at the anchor).
    """
    (cost,), _ = _points(exp)
    counts, _ = draw_arrivals(exp, seed, discrete_costs(exp))
    waiting = 0
    processed: list[int] = []
    stakes = [exp.initial_stake]
    charges = []
    for t in range(1, exp.steps + 1):
        waiting += int(counts[t - 1])
        slack = min(
            (delta.numerator * stakes[max(t - w, 0)]) // delta.denominator
            - sum(processed[max(0, t - w) : t - 1])
            for delta, w in exp.windows
        )
        take = min(capacity(max(0, slack)), waiting)
        charges.append(-cost * waiting)
        waiting -= take
        processed.append(take)
        stakes.append(stakes[-1] - take)
    return discounted(charges, exp.discount)


def trial_metric(exp: Experiment, name: str, seed: int) -> float:
    """The oracle's metric for one trial of the named mechanism.

    Fraction-of-stake experiments (discounted, one cost level) run the
    count-level queue; absolute ones (steady state) run the heap.
    """
    by_cost, capacity = mechanism_rules(exp)[name]
    if exp.fraction:
        return fraction_trial(exp, capacity, seed)
    return heap_steady_state(exp, by_cost, capacity, seed)


def object_means(exp: Experiment, trials: int, seed: int) -> dict[str, float]:
    """Oracle means over trials seed..seed+trials-1, summed as the program does."""
    return {
        name: math.fsum(trial_metric(exp, name, seed + i) for i in range(trials)) / trials
        for name in mechanism_rules(exp)
    }


def check_same_row(rows, a: str, b: str) -> list[str]:
    """Rows a and b agree in every field but the mechanism name."""
    if a not in rows or b not in rows:
        return [f"rows {a} and {b} are not both present"]
    ra = {k: v for k, v in rows[a].items() if k != "mechanism"}
    rb = {k: v for k, v in rows[b].items() if k != "mechanism"}
    return [] if ra == rb else [f"{b} row differs from {a} row: {rb} vs {ra}"]


# =============================================================
# Whole outputs of one round
# =============================================================


def check_flagship_csv(csv: str, exp: Experiment, policy_text: str, trials: int, seed: int) -> list[str]:
    """Rows, means against the count-level simulation, and optimal's lead."""
    rows = parse_simulate_csv(csv)
    found = check_rows(rows, exp.mechanisms, trials=trials, steps=exp.steps, gamma=exp.discount, seed=seed)
    found += check_means(rows, two_class_means(exp, policy_text, trials, seed), rel=1e-12)
    if not found and float(rows["optimal"]["mean"]) <= float(rows["prio-minslack"]["mean"]):
        found.append("optimal does not beat prio-minslack")
    return found


def check_steady_csv(csv: str, exp: Experiment, trials: int, seed: int) -> list[str]:
    """Rows, and every mean bit for bit against the heap-based trials."""
    rows = parse_simulate_csv(csv)
    found = check_rows(rows, list(mechanism_rules(exp)), trials=trials, steps=exp.steps, gamma=None, seed=seed)
    return found + check_means(rows, object_means(exp, trials, seed))


def check_fraction_csv(csv: str, exp: Experiment, trials: int, seed: int) -> list[str]:
    """Rows, means bit for bit, and prio-minslack identical to minslack.

    With one cost level, ordering by cost keeps arrival order, so the two
    mechanisms must serve the same requests in every period.
    """
    rows = parse_simulate_csv(csv)
    found = check_rows(
        rows, list(mechanism_rules(exp)), trials=trials, steps=exp.steps, gamma=exp.discount, seed=seed
    )
    found += check_means(rows, object_means(exp, trials, seed))
    return found + check_same_row(rows, "minslack", "prio-minslack")
