"""Exact decision model for a two-cost-class queue under one window constraint.

When costs take two values and the only constraint is a single absolute
(budget, window) pair, the queue collapses to a finite Markov decision
process: the state is the pair of waiting counts plus the last window-1
processed totals, and the action is how many requests to process this
period. This module enumerates that state space, builds the transition
structure, solves it by value iteration, and exposes the solved policy both
as a queue mechanism (``optimal_select`` / ``OptimalMechanism``) and as the
basis for marginal-externality payments (``vcg_estimate``).

State conventions:
  * ``w_low``/``w_high`` are waiting counts clamped to ``cap`` (arrivals
    beyond the cap saturate in the model; the live queue keeps true counts
    and clamps only when looking up the policy).
  * ``history[j]`` is the number processed j+1 periods ago; legal actions
    satisfy sum(history) + a <= budget, which is exactly the sliding-window
    slack of the (budget, window) constraint. Arrays carry a history as
    one index into ``StateSpace.digits``.
  * Rewards are nonpositive: the negated waiting cost of whatever remains
    after the action, removing highest-cost requests first.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    Constraint,
    ConstraintSet,
    ExitRequest,
    QueueState,
    step,
)
from .distributions import Discrete
from .errors import (
    ConfigError,
    ModelMismatch,
    NonConvergence,
    UnknownRequest,
)
from .mechanisms import _by_cost_desc, _prefix

__all__ = [
    "MdpState",
    "ArrivalModel",
    "MAX_BUDGET",
    "StateSpace",
    "enumerate_states",
    "build_transitions",
    "TransitionTable",
    "MdpModel",
    "build_model",
    "Policy",
    "SolveInfo",
    "value_iteration",
    "action_values",
    "policy_text",
    "save_policy",
    "load_policy",
    "queue_to_mdp_state",
    "optimal_select",
    "OptimalMechanism",
    "VcgEstimate",
    "vcg_estimate",
]


class MdpState(NamedTuple):
    w_low: int
    w_high: int
    history: tuple[int, ...]


@dataclass(frozen=True)
class ArrivalModel:
    """Two-class arrival process: count distribution, class split, costs."""

    count_dist: tuple[tuple[int, float], ...]
    high_prob: float
    cost_low: float
    cost_high: float

    def __init__(self, count_dist, high_prob: float, cost_low: float, cost_high: float):
        pairs = tuple(count_dist)
        counts = Discrete([k for k, _ in pairs], [p for _, p in pairs])
        object.__setattr__(self, "count_dist", counts.as_count_dist())
        object.__setattr__(self, "high_prob", float(high_prob))
        object.__setattr__(self, "cost_low", float(cost_low))
        object.__setattr__(self, "cost_high", float(cost_high))
        if not 0.0 <= self.high_prob <= 1.0:
            raise ConfigError(f"high_prob must lie in [0,1], got {self.high_prob}")
        if not 0 < self.cost_low < self.cost_high:
            raise ConfigError(
                f"need 0 < cost_low < cost_high, got ({self.cost_low}, {self.cost_high})"
            )

    def is_deterministic(self) -> bool:
        """True when the next arrival batch is a single certain outcome."""
        live = [(k, p) for k, p in self.count_dist if p > 0.0]
        if len(live) != 1:
            return False
        k = live[0][0]
        return k == 0 or self.high_prob in (0.0, 1.0)

    def cost_class(self, cost: float) -> str:
        if cost == self.cost_low:
            return "low"
        if cost == self.cost_high:
            return "high"
        raise ModelMismatch(
            f"cost {cost} is neither cost_low={self.cost_low} nor cost_high={self.cost_high}"
        )


# =============================================================
# State space
# =============================================================


MAX_BUDGET = int(np.iinfo(np.int8).max)  # a policy stores its actions as int8


def _state_count(cap: int, budget: int, window: int) -> int:
    """(cap+1)^2 count pairs times C(budget+window-1, window-1) histories;
    ConfigError for parameters that describe no state space, or a budget
    whose actions a policy cannot store."""
    if cap < 0 or budget < 0 or window < 1:
        raise ConfigError(f"bad state-space parameters cap={cap} budget={budget} window={window}")
    if budget > MAX_BUDGET:
        raise ConfigError(f"budget {budget} exceeds {MAX_BUDGET}, the most a policy can store")
    return (cap + 1) ** 2 * math.comb(budget + window - 1, window - 1)


def _histories(budget: int, length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every history of ``length`` digits summing to at most ``budget``, in
    lexicographic order, with each one's slack and the push table of
    ``StateSpace``. Each pass puts a digit a before every shorter history q
    whose slack is at least a, in (a, q) order, at a cost of what it builds.
    Pushing a onto such an h gives a before h less its oldest digit: the
    shorter table's push of h's first digit onto h's suffix.
    """
    digits = np.zeros((1, 0), dtype=np.int64)
    slack = np.array([budget], dtype=np.int64)
    push = np.zeros((1, budget + 1), dtype=np.int64)  # the empty history stays empty
    for _ in range(length):
        fits = slack >= np.arange(budget + 1)[:, None]  # fits[a, q]: a may precede q
        index = np.where(fits, np.cumsum(fits).reshape(fits.shape) - 1, -1)
        first, suffix = np.nonzero(fits)
        digits = np.column_stack([first, digits[suffix]])
        slack = slack[suffix] - first
        push = index[:, push[suffix, first]].T
    return digits, slack, push


class StateSpace:
    """The states of a (cap, budget, window) model, lexicographic in
    (w_low, w_high, history). State i has counts ``w_low[i]``, ``w_high[i]``
    and history ``hist[i]``, and encodes as ``(w_low*(cap+1) + w_high)*n_hist + hist``.

    A history is an index into ``digits``, whose row h holds the last
    window-1 processed totals, most recent first. ``slack[h]`` bounds this
    period's action, and ``push[h, a]`` is the history after it: ``a``
    enters and the oldest total leaves (-1 if that exceeds the budget).
    """

    def __init__(self, cap: int, budget: int, window: int = 5) -> None:
        self.n = _state_count(cap, budget, window)
        self.cap = cap
        self.budget = budget
        self.window = window
        self.n_hist = self.n // (cap + 1) ** 2
        try:  # the per-state arrays first: they are the largest
            pairs, self.hist = np.divmod(np.arange(self.n), self.n_hist)
            self.w_low, self.w_high = np.divmod(pairs, cap + 1)
            self.digits, self.slack, self.push = _histories(budget, window - 1)
        except (MemoryError, ValueError):  # ValueError: beyond numpy's largest array
            raise ConfigError(f"cannot allocate a state space of {self.n:,} states") from None

    @cached_property
    def states(self) -> list[MdpState]:
        """Every state as a tuple; ``states[i]`` is the state that encodes to ``i``."""
        hists = [tuple(d) for d in self.digits.tolist()]
        counts = zip(self.w_low.tolist(), self.w_high.tolist(), self.hist.tolist())
        return [MdpState(w_low, w_high, hists[h]) for w_low, w_high, h in counts]

    def history_index(self, history: Sequence[int]) -> int:
        """Index of a window history, most recent total first: the empty
        window with each total pushed, oldest first."""
        h = 0 if len(history) == self.window - 1 else -1
        for d in reversed(history):
            h = int(self.push[h, d]) if h >= 0 and 0 <= d <= self.budget else -1
        if h < 0:
            raise ConfigError(f"history {history} outside budget {self.budget}")
        return h

    def encode(self, state: MdpState) -> int:
        h = self.history_index(state.history)
        if not (0 <= state.w_low <= self.cap and 0 <= state.w_high <= self.cap):
            raise ConfigError(f"counts {state.w_low},{state.w_high} outside cap {self.cap}")
        return int(self.encode_arrays(state.w_low, state.w_high, h))

    def encode_arrays(
        self, w_low: np.ndarray, w_high: np.ndarray, hist: np.ndarray
    ) -> np.ndarray:
        """Vectorized encode of counts, clamped to cap, and history indices."""
        wl = np.minimum(w_low, self.cap)
        wh = np.minimum(w_high, self.cap)
        return (wl * (self.cap + 1) + wh) * self.n_hist + hist


def serve(
    w_low: np.ndarray, w_high: np.ndarray, take: np.ndarray | int
) -> tuple[np.ndarray, np.ndarray]:
    """One period's count update, elementwise: serve ``take`` highs first and
    spill the rest to lows. Returns the low and high counts left waiting.
    The model build, the count engine and the payment rollouts all call it;
    each pushes ``take`` onto its history with ``StateSpace.push``."""
    done_high = np.minimum(take, w_high)
    return w_low - np.minimum(take - done_high, w_low), w_high - done_high


def enumerate_states(cap: int, budget: int, window: int = 5) -> list[MdpState]:
    """All states, lexicographic in (w_low, w_high, history): ``StateSpace.states``."""
    return StateSpace(cap, budget, window).states


# =============================================================
# Transitions
# =============================================================


@dataclass(frozen=True)
class ActionTransitions:
    """Sparse transition rows and rewards for one action, one row per legal
    state (``TransitionTable.by_action``)."""

    legal: np.ndarray  # bool (n,)
    src: np.ndarray  # int64 (nnz,) state indices, grouped by state
    dst: np.ndarray  # int64 (nnz,)
    prob: np.ndarray  # float64 (nnz,)
    reward: np.ndarray  # float64 (n,), zero at illegal states


@dataclass(frozen=True)
class TransitionTable:
    """Transitions as after-states and a stencil of arrival outcomes.

    An action leaves an after-state: the queue before arrivals, itself a
    state index (``after``). Arrivals keep its history and move its counts
    by the same offsets from every after-state, clamped at cap: outcome k
    adds ``lows[k]`` lows and ``highs[k]`` highs. ``planes[k, w_low, w_high]``
    is the probability of the successor that outcome k reaches from those
    counts if k is the first outcome to reach it (the mass of every outcome
    that does, summed in outcome order), and 0.0 otherwise.
    """

    space: StateSpace
    after: np.ndarray  # int64 (budget+1, n): after-state of (action, state), -1 if illegal
    after_reward: np.ndarray  # float64 (n,): minus the waiting cost left in each after-state
    lows: np.ndarray  # int64 (K,): each outcome's arrivals, clamped to cap
    highs: np.ndarray  # int64 (K,)
    planes: np.ndarray  # float64 (K, cap+1, cap+1)

    @cached_property
    def by_action(self) -> tuple[ActionTransitions, ...]:
        """Every (state, action) row spelled out, one table per action: a
        legal state's successors are the nonzero planes at its after-state's
        counts, in plane order. Built on first access; the solver never
        builds it."""
        space = self.space
        view = []
        for after in self.after:
            legal = after >= 0
            src = np.flatnonzero(legal)
            u = after[src]
            w_low, w_high, hist = space.w_low[u], space.w_high[u], space.hist[u]
            mass = self.planes[:, w_low, w_high].T
            row, k = np.nonzero(mass)
            low, high = w_low[row] + self.lows[k], w_high[row] + self.highs[k]
            view.append(
                ActionTransitions(
                    legal=legal,
                    src=src[row],
                    dst=space.encode_arrays(low, high, hist[row]),
                    prob=mass[row, k],
                    reward=np.where(legal, self.after_reward[after], 0.0),
                )
            )
        return tuple(view)


def _binomial_pmf(k: int, p: float) -> list[float]:
    return [math.comb(k, j) * p**j * (1.0 - p) ** (k - j) for j in range(k + 1)]


def build_transitions(
    arrival_model: ArrivalModel, cap: int, budget: int, window: int = 5
) -> TransitionTable:
    """After-states of every (state, action) pair, and the arrival stencil.

    Serving ``a`` from a state leaves an after-state (the counts left and
    the shifted history). After processing, each arrival count k (with
    probability P[Y=k]) splits into j high-cost arrivals with
    Binomial(k, high_prob) weight; the outcomes (k, j) with nonzero weight
    become count offsets, in that order. Counts saturate at cap, so outcomes
    can reach the same successor: its probability goes to the plane of the
    first outcome that reaches it, summed from 0.0 in outcome order. An
    after-state's successors are then the nonzero planes at its counts, in
    plane order, with its own history.
    """
    space = StateSpace(cap, budget, window)
    outcomes = [
        (k - j, j, pk * pj)
        for k, pk in arrival_model.count_dist
        if pk != 0.0
        for j, pj in enumerate(_binomial_pmf(k, arrival_model.high_prob))
    ]
    lows, highs, probs = map(np.asarray, zip(*[o for o in outcomes if o[2] != 0.0]))
    lows, highs = np.minimum(lows, cap), np.minimum(highs, cap)
    a = np.arange(budget + 1)[:, None]  # row a serves a from every state
    legal = a <= space.slack[space.hist]
    low_left, high_left = serve(space.w_low, space.w_high, a)
    pushed = space.push[space.hist, a]
    after = np.where(legal, space.encode_arrays(low_left, high_left, pushed), -1)
    cost = arrival_model.cost_high * space.w_high + arrival_model.cost_low * space.w_low

    # The count pair each outcome reaches from each count pair; each outcome's
    # probability goes to the first outcome that reaches the same pair.
    counts = np.arange(cap + 1)
    reach = (np.minimum(counts + lows[:, None], cap)[:, :, None] * (cap + 1)
             + np.minimum(counts + highs[:, None], cap)[:, None, :])
    planes = np.zeros(reach.shape)
    i, j = np.indices(reach.shape[1:])
    for k, p in enumerate(probs):
        planes[np.argmax(reach[: k + 1] == reach[k], axis=0), i, j] += p
    return TransitionTable(
        space=space, after=after, after_reward=-cost, lows=lows, highs=highs, planes=planes
    )


@dataclass(frozen=True)
class MdpModel:
    """A built decision model ready for the solver."""

    arrival_model: ArrivalModel
    discount: float
    table: TransitionTable

    def __post_init__(self) -> None:
        if not 0.0 < self.discount < 1.0:
            raise ConfigError(f"discount must lie in (0,1), got {self.discount}")

    @property
    def space(self) -> StateSpace:
        return self.table.space


def build_model(
    arrival_model: ArrivalModel,
    cap: int,
    budget: int,
    window: int = 5,
    discount: float = 0.9,
) -> MdpModel:
    table = build_transitions(arrival_model, cap, budget, window)
    return MdpModel(arrival_model=arrival_model, discount=discount, table=table)


# =============================================================
# Value iteration
# =============================================================


@dataclass(frozen=True)
class SolveInfo:
    iterations: int
    residual: float
    sweep_diffs: tuple[float, ...]


@dataclass(frozen=True)
class Policy:
    """Solved policy: per-state action and value, plus solve metadata."""

    space: StateSpace
    discount: float
    tolerance: float
    actions: np.ndarray  # int8 (n,)
    values: np.ndarray  # float64 (n,)
    info: SolveInfo | None = None

    def take(self, w_low: np.ndarray, w_high: np.ndarray, hist: np.ndarray) -> np.ndarray:
        """How many each count state processes: its action (counts clamped
        to cap for the lookup), but no more than are waiting."""
        action = self.actions[self.space.encode_arrays(w_low, w_high, hist)]
        return np.minimum(action.astype(np.int64), w_low + w_high)

    @cached_property
    def constraints(self) -> ConstraintSet:
        """The single absolute (budget, window) constraint this policy was solved for."""
        return ConstraintSet([Constraint(self.space.budget, self.space.window)])


def _after_values(table: TransitionTable, discount: float, values: np.ndarray) -> np.ndarray:
    """Each after-state's value, in state order: its reward plus the
    discounted expected value of its successor.

    On the (cap+1, cap+1, histories) value grid, outcome k reads the grid
    shifted by its offsets, and padding the grid with its edge is the clamp
    at cap. The planes add up in outcome order from 0.0, so each sum adds
    the successors in the order outcomes first reach them; a 0.0 entry adds
    a signed zero, which changes no sum.
    """
    cap = table.space.cap
    values = values.reshape(cap + 1, cap + 1, -1)
    pad = np.empty((cap + 1 + table.lows.max(), cap + 1 + table.highs.max(), values.shape[2]))
    pad[: cap + 1, : cap + 1] = values
    pad[cap + 1 :, : cap + 1] = values[cap]
    pad[:, cap + 1 :] = pad[:, cap : cap + 1]
    ev = np.zeros(values.shape)
    for plane, low, high in zip(table.planes[..., None], table.lows, table.highs):
        ev += plane * pad[low : low + cap + 1, high : high + cap + 1]
    return table.after_reward + discount * ev.ravel()


def value_iteration(
    model: MdpModel,
    tolerance: float = 1e-9,
    max_iterations: int | None = None,
) -> Policy:
    """Solve to a sup-norm Bellman residual within tolerance.

    Sweeps until successive value vectors differ by at most ``tolerance``;
    the fixed-point contraction then bounds the returned values' residual
    by discount * tolerance. A sweep values every after-state once, reads
    action 0 (always legal) at every state, then the legal pairs of the
    other actions, action by action. ``action_values`` at the final values
    gives the greedy actions and the residual.
    """
    if tolerance <= 0:
        raise ConfigError(f"tolerance must be positive, got {tolerance}")
    gamma = model.discount
    if max_iterations is None:
        max_iterations = max(1, math.ceil(10 * math.log(tolerance) / math.log(gamma)))

    after = model.table.after
    legal = after[1:] >= 0
    states, legal_after = np.nonzero(legal)[1], after[1:][legal]  # action-major: actions in order
    values = np.zeros(model.space.n)
    diffs: list[float] = []
    for _ in range(max_iterations):
        after_values = _after_values(model.table, gamma, values)
        new_values = after_values[after[0]]
        np.maximum.at(new_values, states, after_values[legal_after])
        diff = float(np.max(np.abs(new_values - values)))
        diffs.append(diff)
        values = new_values
        if diff <= tolerance:
            break
    else:
        raise NonConvergence(
            f"value iteration did not reach tolerance {tolerance} "
            f"in {max_iterations} sweeps (last diff {diffs[-1]:.3e})"
        )

    # argmax takes the first maximum: exact ties resolve to the smallest action.
    q = action_values(model, values)
    actions = np.argmax(q, axis=1).astype(np.int8)
    residual = float(np.max(np.abs(q.max(axis=1) - values)))
    return Policy(
        space=model.space,
        discount=gamma,
        tolerance=tolerance,
        actions=actions,
        values=values,
        info=SolveInfo(iterations=len(diffs), residual=residual, sweep_diffs=tuple(diffs)),
    )


def action_values(model: MdpModel, values: np.ndarray) -> np.ndarray:
    """One full Bellman backup of a value vector: Q(s, a) with shape
    (n, budget+1), the value of the after-state that ``a`` leaves from
    ``s``, and -inf where ``a`` is illegal."""
    after_values = _after_values(model.table, model.discount, values)
    return np.append(after_values, -np.inf)[model.table.after.T]  # after == -1 reads -inf


# =============================================================
# Policy file format
# =============================================================


def policy_text(policy: Policy) -> str:
    """Flat-file form of a policy: metadata header, then one row per state."""
    space = policy.space
    hcols = [f"h{j + 1}" for j in range(space.window - 1)]
    lines = ["cap,budget,gamma,tolerance"]
    lines.append(f"{space.cap},{space.budget},{policy.discount!r},{policy.tolerance!r}")
    lines.append(",".join(["index", "w_low", "w_high", *hcols, "action", "value"]))
    hcells = ["".join(f"{d}," for d in row) for row in space.digits.tolist()]
    columns = (space.w_low, space.w_high, space.hist, policy.actions, policy.values)
    lines.extend(
        f"{idx},{w_low},{w_high},{hcells[h]}{a},{value:.12e}"
        for idx, (w_low, w_high, h, a, value) in enumerate(zip(*(c.tolist() for c in columns)))
    )
    return "\n".join(lines) + "\n"


def save_policy(policy: Policy, path) -> None:
    """Write the flat policy file (format under policy_text), creating its
    directory; a path that cannot be written is a ConfigError.

    The text goes to a temporary file beside ``path`` that then replaces it,
    so a reader never sees a partly written policy.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "x", encoding="ascii", newline="\n") as fh:
            fh.write(policy_text(policy))
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write policy file {path}: {exc}") from None
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink()  # gone once it has replaced path


def _policy_rows(rows: list[str], width: int, path) -> tuple[np.ndarray, np.ndarray]:
    """The integer cells, a row per state row, and the values of a policy
    file's state rows; ConfigError naming the first row that is not
    ``width`` numbers, its integers within int64."""
    try:
        if any(row.count(",") != width - 1 for row in rows):
            raise ValueError("wrong number of cells")
        read = partial(np.loadtxt, rows, delimiter=",", comments=None, ndmin=2)
        return read(dtype=np.int64, usecols=range(width - 1)), read(usecols=[width - 1])[:, 0]
    except ValueError as exc:
        if len(rows) == 1:
            raise ConfigError(f"malformed policy row in {path}: {rows[0]!r}") from None
        for row in rows:  # find the row at fault
            _policy_rows([row], width, path)
        raise ConfigError(f"malformed policy rows in {path}: {exc}") from None


def load_policy(path) -> Policy:
    """Read a policy file back, checking its exact headers, its row count
    (before any space is built) and every row against the enumeration."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read policy file {path}: {exc}") from exc
    try:
        if lines[0] != "cap,budget,gamma,tolerance":
            raise ConfigError(f"bad metadata header: {lines[0]!r}")
        cap_s, budget_s, gamma_s, tol_s = lines[1].split(",")
        cap, budget = int(cap_s), int(budget_s)
        gamma, tolerance = float(gamma_s), float(tol_s)
        state_header = lines[2].split(",")
        window = len(state_header) - 4
        hcols = [f"h{j + 1}" for j in range(window - 1)]
        if state_header != ["index", "w_low", "w_high", *hcols, "action", "value"]:
            raise ConfigError(f"bad state header: {lines[2]!r}")
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"malformed policy file {path}: {exc}") from exc

    rows = [r for r in lines[3:] if r]
    n = _state_count(cap, budget, window)
    if len(rows) != n:
        raise ModelMismatch(f"policy file has {len(rows)} states, expected {n}")
    cells, values = _policy_rows(rows, len(state_header), path)
    # Rows may come in any order, but sorted by index they must be the states.
    by_index = np.argsort(cells[:, 0], kind="stable")
    cells, values, rows = cells[by_index], values[by_index], [rows[r] for r in by_index]
    space = StateSpace(cap, budget, window)
    states = np.column_stack([np.arange(n), space.w_low, space.w_high, space.digits[space.hist]])
    wrong = np.flatnonzero(np.any(cells[:, :-1] != states, axis=1))
    if wrong.size:
        raise ModelMismatch(f"row for state {wrong[0]} is missing or wrong: {rows[wrong[0]]!r}")
    actions = cells[:, -1]
    illegal = np.flatnonzero((actions < 0) | (actions > space.slack[space.hist]))
    if illegal.size:
        raise ModelMismatch(f"illegal action {actions[illegal[0]]} in row {rows[illegal[0]]!r}")
    actions = actions.astype(np.int8)
    return Policy(space=space, discount=gamma, tolerance=tolerance, actions=actions, values=values)


# =============================================================
# Live-queue bridge
# =============================================================


def queue_to_mdp_state(state: QueueState, arrival_model: ArrivalModel, window: int) -> MdpState:
    """Count view of a live queue. ModelMismatch for a request the model does
    not count: one of neither cost, or else of a stake other than 1."""
    w_high = 0
    for r in state.waiting:
        w_high += arrival_model.cost_class(r.cost) == "high"
        if r.stake != 1:
            raise ModelMismatch(f"model counts unit stakes; {r.validator} has stake {r.stake}")
    hist = (state.processed_totals[::-1] + (0,) * window)[: window - 1]  # most recent first
    return MdpState(len(state.waiting) - w_high, w_high, hist)


def optimal_select(
    policy: Policy, state: QueueState, arrival_model: ArrivalModel
) -> tuple[ExitRequest, ...]:
    """Select per the solved policy: take as many as ``Policy.take`` gives.

    Raises ModelMismatch unless the queue runs exactly the (budget, window)
    absolute constraint the policy was solved for with two unit-stake cost
    classes matching the arrival model, and ConfigError for a window
    history outside the budget.
    """
    if state.constraints != policy.constraints:
        raise ModelMismatch(f"queue runs {state.constraints}, not the policy's {policy.constraints}")
    w_low, w_high, hist = queue_to_mdp_state(state, arrival_model, policy.space.window)
    take = int(policy.take(w_low, w_high, policy.space.history_index(hist)))
    return _prefix(_by_cost_desc(state.waiting, "cost"), take)


@dataclass(frozen=True)
class OptimalMechanism:
    """Policy-backed drop-in for the heuristic mechanisms."""

    policy: Policy
    arrival_model: ArrivalModel
    name = "optimal"
    order = "cost"  # optimal_select takes a prefix of _by_cost_desc

    def select(self, state: QueueState) -> tuple[ExitRequest, ...]:
        return optimal_select(self.policy, state, self.arrival_model)


# =============================================================
# Marginal-externality payments
# =============================================================


@dataclass(frozen=True)
class VcgEstimate:
    """Estimated externality payment with its sampling error."""

    payment: float  # clamped at 0
    raw_mean: float
    stderr: float
    samples: int
    exact: bool


def _payment_period(
    policy: Policy,
    model: ArrivalModel,
    branches: tuple[np.ndarray, ...],
    counts: np.ndarray,
    highs: np.ndarray,
    agent_is_high: bool,
    agent_cost: float,
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """One period of both payment rollouts; returns them after it and the
    others' waiting cost.

    ``branches`` is (w_low, w_high, history index, agent waiting, requests
    ahead of the agent), each with a row per branch and a column per sample:
    row 0 with the agent, row 1 without it. Arrivals broadcast over both rows.
    """
    w_low, w_high, hist, active, ahead = branches
    action = policy.take(w_low, w_high, hist)
    served = active & (action > ahead)
    ahead = np.where(active & ~served, np.maximum(ahead - action, 0), ahead)
    active = active & ~served
    hist = policy.space.push[hist, action]
    w_low, w_high = serve(w_low, w_high, action)
    others = model.cost_low * w_low + model.cost_high * w_high - np.where(active, agent_cost, 0.0)
    # New arrivals; future high arrivals outrank a still-waiting low agent.
    if not agent_is_high:
        ahead = ahead + np.where(active, highs, 0)
    return (w_low + (counts - highs), w_high + highs, hist, active, ahead), others


def _replay_to_agent(
    policy: Policy,
    arrival_model: ArrivalModel,
    trajectory: Sequence[Sequence[ExitRequest]],
    agent: ExitRequest,
) -> tuple[QueueState, int]:
    """Replay the realized arrivals under the policy up to the agent's period."""
    agent_period = None
    for t, batch in enumerate(trajectory, start=1):
        for r in batch:
            if r.validator == agent.validator:
                if r != agent:
                    raise ModelMismatch(f"trajectory holds a different request for {agent.validator}")
                if agent_period is not None:
                    raise ModelMismatch(f"agent {agent.validator} appears twice")
                agent_period = t
    if agent_period is None:
        raise UnknownRequest(f"agent {agent.validator} not present in the trajectory")
    if any(r.requested_at != t for t, batch in enumerate(trajectory, start=1) for r in batch):
        raise ModelMismatch("trajectory batches must carry matching requested_at periods")

    state = QueueState.initial(policy.constraints, arrivals=trajectory[0])
    for t in range(1, agent_period):
        selected = optimal_select(policy, state, arrival_model)
        state = step(state, trajectory[t], selected)
    return state, agent_period


def vcg_estimate(
    policy: Policy,
    trajectory: Sequence[Sequence[ExitRequest]],
    agent: ExitRequest,
    arrival_model: ArrivalModel,
    *,
    samples: int = 10_000,
    seed: int = 0,
) -> VcgEstimate:
    """Externality of one agent: others' expected discounted waiting cost
    with the agent present minus with it absent, under the solved policy.

    Both counterfactuals restart from the agent's arrival period (discount
    epoch 0), share common-random-number futures and advance together as
    one 2 x samples array. Deterministic arrival models are
    evaluated exactly; the value function cross-checks the
    without-agent branch whenever that state is inside the model's cap.
    Trajectory batches after the agent's arrival are ignored: the payment
    conditions on the state at arrival and averages over model futures.
    """
    state, agent_period = _replay_to_agent(policy, arrival_model, trajectory, agent)
    space = policy.space
    w_low0, w_high0, hist0 = queue_to_mdp_state(state, arrival_model, space.window)
    gamma = policy.discount
    horizon = max(1, math.ceil(math.log(1e-10) / math.log(gamma)))  # gamma^horizon <= 1e-10

    agent_is_high = arrival_model.cost_class(agent.cost) == "high"
    order = _by_cost_desc(state.waiting, "cost")
    ahead0 = next(i for i, r in enumerate(order) if r.validator == agent.validator)
    absent = MdpState(w_low0 - (not agent_is_high), w_high0 - agent_is_high, hist0)

    exact = arrival_model.is_deterministic()
    m = 1 if exact else int(samples)
    if m < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")

    # Row 0 rolls out with the agent and row 1 without it, m samples each.
    without = np.repeat([[False], [True]], m, axis=1)
    branches = (
        np.where(without, absent.w_low, w_low0),
        np.where(without, absent.w_high, w_high0),
        np.full((2, m), space.history_index(hist0)),
        ~without,
        np.where(without, 0, ahead0),
    )

    count_dist = Discrete(*zip(*arrival_model.count_dist))
    rng = np.random.default_rng(seed)

    acc = np.zeros((2, m), dtype=np.float64)
    saturated = False
    disc = 1.0
    for _ in range(horizon):
        if exact:
            without_agent = branches[0][1, 0], branches[1][1, 0]
            saturated = saturated or max(without_agent) > space.cap
        # A deterministic model draws its one certain batch.
        counts = count_dist.sample(rng, m)
        highs = rng.binomial(counts, arrival_model.high_prob)
        branches, others = _payment_period(
            policy, arrival_model, branches, counts, highs, agent_is_high, agent.cost
        )
        acc += disc * others
        disc *= gamma

    diffs = acc[0] - acc[1]
    mean = float(np.mean(diffs))
    if exact:
        stderr = 0.0
        # Cross-check: with no agent-tracking the without branch is plain
        # value-function mass, valid whenever counts never saturate the cap.
        if absent.w_low <= space.cap and absent.w_high <= space.cap and not saturated:
            v = float(policy.values[space.encode(absent)])
            if abs(-v - float(acc[1, 0])) > 1e-6 * max(1.0, abs(v)):
                raise ModelMismatch(
                    "deterministic rollout disagrees with the value function; "
                    "policy and arrival model are inconsistent"
                )
    else:
        stderr = float(np.std(diffs, ddof=1) / math.sqrt(m)) if m > 1 else 0.0
    return VcgEstimate(
        payment=max(0.0, mean),
        raw_mean=mean,
        stderr=stderr,
        samples=m,
        exact=exact,
    )
