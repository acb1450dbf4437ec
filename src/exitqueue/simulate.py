"""Seeded trial execution, performance metrics, and Monte Carlo aggregation.

A trial simulates ``steps`` periods from an empty queue: arrivals join the
waiting list, the mechanism selects, ``step`` applies the selection, and the
period's penalty (negated total waiting cost of whatever remains) is
recorded. Two metrics summarize a trial:

  * discounted_reward: (1 - gamma) * sum of gamma^t * queue cost at t, where
    the queue cost charges every request still pending when period t opens,
    including the ones processed that same period. Weight gamma^0 belongs to
    an implicit empty period before the first arrivals; the (1 - gamma)
    factor normalizes the sum to a per-period scale.
  * steady_state_disutility: mean of -cost * delay over requests processed
    after the burn-in. Requests still waiting at trial end are charged the
    delay they would have if processed in the final period; censoring them
    instead would flatter exactly the heavy-tailed configurations where the
    backlog matters (reports note this rule).

monte_carlo runs trials at seeds seed, seed+1, ... and aggregates one metric.
Trials are independent, and every trial draws requests of stake 1 and bid 0.
Two engines draw every trial's arrivals through _draw_arrivals, as run_trial
does, with results bit-identical to run_trial's, as tests pin. It draws
several trials at once, each from its own generator, so its numpy calls are
paid once per chunk of trials, not once per trial. The queue's shape picks
the engine:

  * the count engine, vectorized across trials, takes a discounted run whose
    queue is a pair of class counts: one cost level under any order, or two
    under the cost order, as an optimal policy always has;
  * the unit-stake engine takes every other Mechanism, under either metric.
    With unit stakes a Mechanism processes min(capacity(min_slack), waiting)
    requests whatever its order, so a count pass gives a trial's counts from
    its arrivals alone, by the window rule the count engine reads too
    (_windows). An order pass finds who left: a prefix of the arrivals
    under FCFS, a heap replay of the ranking under a cost or bid order.
    Each metric is then scored from the counts and who left, a block of
    trials at a time.

Either engine runs one block of trials at a time, so its memory does not
grow with the trial count, and yields each block: the seed of the first
trial, their cumulative processed counts, and their values, scored only
when read; on either engine one scorer (_discounted_values) turns a
discounted block's per-period queue costs into its values. For every
block, monte_carlo checks the counts against the initial stake and audits
them against the constraints, in one place, before it reads any of the
block's values: a block holding a trial that cannot be scored
(NoWithdrawals) before one that exceeds the stake reports the stake. Both
sum costs by one exact-sum rule (_exact_units): every finite float is an
integer over a power of two, so over their largest denominator costs sum
exactly in integers, and one conversion (_over_scale) rounds each sum half
to even, as math.fsum rounds the same floats in run_trial.

SimulationConfig is the one gate on a run. It checks once that the cost
distribution has finite parameters and draws no negative cost, so neither
engine builds an ExitRequest: they rank plain (cost, bid, index) records
through the mechanisms' own order. It admits an optimal policy only under
the discounted metric, the decision problem the policy solves, and only on
the constraint and the two cost points it was solved for. Finite
parameters can still draw an infinite cost, or costs whose sums overflow;
such a trial scores nan, and monte_carlo raises ConfigError for the first.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from heapq import heappop, heappush, heappushpop
from itertools import repeat
from operator import attrgetter, sub, truediv
from typing import Iterator, Sequence

import numpy as np

from .core import (
    ConstraintMode,
    ConstraintSet,
    ExitRequest,
    QueueState,
    _integer,
    step,
)
from .distributions import (
    Discrete,
    Exponential,
    Pareto,
    Uniform,
    ValueDistribution,
)
from .errors import (
    ConfigError,
    FeasibilityViolation,
    InstanceTooLarge,
    ModelMismatch,
    NoWithdrawals,
)
from . import mechanisms
from .mechanisms import Mechanism
from .mdp import OptimalMechanism, serve

__all__ = [
    "SimulationConfig",
    "TrialResult",
    "sample_arrival_schedule",
    "run_trial",
    "discounted_reward",
    "steady_state_disutility",
    "MonteCarloSummary",
    "monte_carlo",
    "HistogramBin",
    "make_histogram",
    "brute_force_schedules",
]

METRICS = ("discounted", "steady-state")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything one experiment needs to be rerun exactly."""

    constraints: ConstraintSet
    mechanism: Mechanism | OptimalMechanism
    arrival_counts: Discrete
    values: ValueDistribution
    steps: int
    trials: int = 1
    seed: int = 0
    metric: str = "discounted"
    discount: float | None = None
    burn_in: int = 0
    initial_stake: int | None = None

    def __post_init__(self) -> None:
        _integer("steps", self.steps, 1)
        _integer("trials", self.trials, 1)
        _integer("seed", self.seed, 0)
        if _integer("burn_in", self.burn_in, 0) >= self.steps:
            raise ConfigError(f"burn_in must lie in [0, steps), got {self.burn_in}")
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        # A setting the run's metric never reads is refused, not ignored.
        if self.metric == "discounted":
            if self.discount is None:
                raise ConfigError("discounted metric needs a discount factor")
            if self.burn_in:
                raise ConfigError("burn_in applies to the steady-state metric only")
        elif self.discount is not None:
            raise ConfigError("discount applies to the discounted metric only")
        if self.discount is not None and not 0.0 < self.discount < 1.0:
            raise ConfigError(f"discount must lie in (0,1), got {self.discount}")
        if not isinstance(self.arrival_counts, Discrete):
            raise ConfigError("arrival counts must be a finite discrete distribution")
        if isinstance(self.mechanism, OptimalMechanism) and self.metric != "discounted":
            raise ConfigError(f"optimal policies solve the discounted metric, not {self.metric}")
        self.arrival_counts.as_count_dist()  # validates nonnegative integer support
        if not _finite_nonnegative_costs(self.values):
            raise ConfigError(f"values must draw finite nonnegative costs, got {self.values}")
        if self.constraints.mode is ConstraintMode.FRACTION_OF_STAKE and self.initial_stake is None:
            raise ConfigError("fractional constraints need initial_stake")
        if self.initial_stake is not None:
            _integer("initial_stake", self.initial_stake, 0)
        if isinstance(self.mechanism, OptimalMechanism):
            _check_policy_fits(self.mechanism, self)


def _finite_nonnegative_costs(values: ValueDistribution) -> bool:
    """Whether every cost that ``values`` can draw is finite and nonnegative.

    This is the one check on drawn costs: neither engine builds a validated
    ExitRequest per draw.
    """
    if isinstance(values, Discrete):
        return all(math.isfinite(x) and x >= 0 for x in values.points)
    if isinstance(values, Uniform):
        return 0 <= values.lo and math.isfinite(values.hi)
    if isinstance(values, Exponential):
        # A rate of 5e-324 is finite, but its scale, and every draw, is not.
        return math.isfinite(values.param) and math.isfinite(values.scale)
    if isinstance(values, Pareto):
        return math.isfinite(values.shape) and math.isfinite(values.scale)
    return False


@dataclass(frozen=True)
class TrialResult:
    """One simulated trajectory, complete enough to audit and re-score."""

    per_period_penalty: tuple[float, ...]
    processed_log: tuple[tuple[tuple[ExitRequest, int, float], ...], ...]
    trace: tuple[int, ...]
    final_state: QueueState

    def __post_init__(self) -> None:
        if any(p > 0 for p in self.per_period_penalty):
            raise ConfigError("penalties must be nonpositive")
        if any(d < 0 for batch in self.processed_log for _, d, _ in batch):
            raise ConfigError("processing delays must be nonnegative")

    @property
    def steps(self) -> int:
        return len(self.per_period_penalty)


def _draw_arrivals(
    rngs: Sequence[np.random.Generator], steps: int, arrival_counts: Discrete,
    values: ValueDistribution,
) -> tuple[np.ndarray, np.ndarray]:
    """The arrivals of one trial per generator, drawn together: their counts
    (trials x steps) and every cost, trial after trial. Each generator draws
    its trial's count of every period in one call, then every cost in a
    second, as Discrete.sample would; a Discrete looks the uniforms of all
    the trials up at once. run_trial and both of monte_carlo's engines draw
    every trial through here, so each sees identical arrivals."""
    uniforms = np.empty((len(rngs), steps))
    for rng, row in zip(rngs, uniforms):
        rng.random(out=row)
    counts = arrival_counts.points_at(uniforms).astype(np.int64, copy=False)
    sizes = counts.sum(axis=1).tolist()
    if isinstance(values, Discrete):
        costs = values.points_at(np.concatenate([rng.random(k) for rng, k in zip(rngs, sizes)]))
    else:
        costs = np.concatenate([values.sample(rng, k) for rng, k in zip(rngs, sizes)])
    return counts, costs.astype(np.float64, copy=False)


def sample_arrival_schedule(
    rng: np.random.Generator,
    steps: int,
    arrival_counts: Discrete,
    values: ValueDistribution,
) -> list[list[ExitRequest]]:
    """Whole-trial arrival schedule: one batch per period, labelled
    ``p<period>.<i>`` and requested at that period."""
    counts, costs = _draw_arrivals([rng], steps, arrival_counts, values)
    costs = costs.tolist()
    schedule: list[list[ExitRequest]] = []
    pos = 0
    for t, k in enumerate(counts[0].tolist(), start=1):
        schedule.append([ExitRequest(f"p{t}.{i}", t, costs[pos + i]) for i in range(k)])
        pos += k
    return schedule


def run_trial(config: SimulationConfig, seed: int) -> TrialResult:
    """Simulate one seeded trajectory under the configured mechanism."""
    rng = np.random.default_rng(seed)
    schedule = sample_arrival_schedule(rng, config.steps, config.arrival_counts, config.values)
    state = QueueState.initial(
        config.constraints, total_stake=config.initial_stake, arrivals=schedule[0]
    )
    penalties: list[float] = []
    log: list[tuple[tuple[ExitRequest, int, float], ...]] = []
    for t in range(1, config.steps + 1):
        selected = config.mechanism.select(state)
        chosen = {r.validator for r in selected}
        penalties.append(-math.fsum(r.cost for r in state.waiting if r.validator not in chosen))
        log.append(tuple((r, t - r.requested_at, r.cost) for r in selected))
        arrivals = schedule[t] if t < config.steps else ()
        state = step(state, arrivals, selected)
    return TrialResult(
        per_period_penalty=tuple(penalties),
        processed_log=tuple(log),
        trace=state.processed_totals,
        final_state=state,
    )


# =============================================================
# Metrics
# =============================================================


def _discount_weights(gamma: float, n: int) -> np.ndarray:
    """gamma, gamma^2, ..., gamma^n, each the previous times gamma.

    A running product, not powers, so that both engines and every trial
    weight period t by the same float.
    """
    return np.cumprod(np.full(n, gamma, dtype=np.float64))


def _discounted(stream: np.ndarray, weights: np.ndarray, gamma: float) -> float:
    return (1.0 - gamma) * math.fsum((weights * stream).tolist())


def _discounted_values(streams: np.ndarray, weights: np.ndarray, gamma: float) -> Iterator[float]:
    """discounted_reward of each row of queue costs (trials x steps), scored
    when read: nan where a row holds nan or its sum leaves the float range."""
    return (_or_nan(_discounted, row, weights, gamma) for row in streams)


def _exact_units(xs: Sequence[float]) -> tuple[list[int], int]:
    """``xs`` as integers over their largest denominator ``scale``: a sum of
    units divided by scale rounds and overflows as math.fsum of the xs."""
    ratios = [x.as_integer_ratio() for x in xs]
    scale = max([d for _, d in ratios], default=1)
    return [n * (scale // d) for n, d in ratios], scale


def discounted_reward(result: TrialResult, gamma: float) -> float:
    """Normalized discounted queue cost of a trial.

    Each period t contributes gamma^t times the negated total cost of every
    request pending when the period opens, so a request is charged from its
    arrival period through its processing period inclusive. That per-period
    charge equals the recorded penalty minus the costs processed that period.
    Weight gamma^0 is reserved for an implicit empty period before the first
    arrivals, and the discounted sum is scaled by (1 - gamma), which maps a
    constant per-period charge of -1 to a reward of about -1.
    """
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must lie in (0,1), got {gamma}")
    stream = [
        pen - math.fsum(c for _, _, c in batch)
        for pen, batch in zip(result.per_period_penalty, result.processed_log)
    ]
    return _discounted(np.asarray(stream), _discount_weights(gamma, len(stream)), gamma)


def steady_state_disutility(result: TrialResult, burn_in: int) -> float:
    """Mean of -cost * delay over withdrawals processed after the burn-in.

    Requests never processed count as if processed in the final period; they
    are included in the mean's denominator.
    """
    if not 0 <= burn_in < result.steps:
        raise ConfigError(f"burn_in must lie in [0, steps), got {burn_in}")
    terms = [
        -c * d
        for t, batch in enumerate(result.processed_log, start=1)
        if t > burn_in
        for _, d, c in batch
    ]
    end = result.steps
    terms.extend(-r.cost * (end - r.requested_at) for r in result.final_state.waiting)
    if not terms:
        raise NoWithdrawals(f"no withdrawals to average after burn_in = {burn_in}")
    return math.fsum(terms) / len(terms)


# =============================================================
# Monte Carlo
# =============================================================


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregated metric over independent trials, plus the raw values."""

    mechanism: str
    metric: str
    mean: float
    stderr: float
    p001: float
    p01: float
    p50: float
    trials: int
    steps: int
    gamma: float | None
    seed: int
    values: tuple[float, ...] = field(repr=False)


def _or_nan(f, *args) -> float:
    """f(*args), or nan where a sum in it leaves the float range."""
    try:
        return f(*args)
    except OverflowError:
        return math.nan


def _summarize(values: Sequence[float], config: SimulationConfig) -> MonteCarloSummary:
    arr = np.asarray(values, dtype=np.float64)
    n = arr.size
    stderr = float(np.std(arr, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    p001, p01, p50 = (float(q) for q in np.quantile(arr, [0.001, 0.01, 0.5]))
    stats = {"mean": _or_nan(math.fsum, values) / n, "stderr": stderr,
             "p001": p001, "p01": p01, "p50": p50}
    bad = [name for name, x in stats.items() if not math.isfinite(x)]
    if bad:  # a non-finite trial value makes the mean non-finite too
        first = np.flatnonzero(~np.isfinite(arr))
        where = (f"at seed {config.seed + int(first[0])}" if first.size
                 else f"in the {bad[0]} of seeds {config.seed}-{config.seed + n - 1}")
        raise ConfigError(f"values must draw costs whose sums stay in the float range; "
                          f"{config.values} leaves it {where}")
    return MonteCarloSummary(
        mechanism=config.mechanism.name,
        metric=config.metric,
        trials=config.trials,
        steps=config.steps,
        gamma=config.discount,
        seed=config.seed,
        values=tuple(float(v) for v in values),
        **stats,
    )


def monte_carlo(config: SimulationConfig) -> MonteCarloSummary:
    """Run `trials` trials at seeds seed, seed+1, ... and aggregate the metric.

    The run's shape picks the engine, which yields its trials in blocks.
    Every block's counts are checked against the initial stake and audited
    against the constraint set before any of its values is read, so a
    breach anywhere in a block is reported before a failure to score an
    earlier trial of it. A cost sum,
    trial metric or summary statistic beyond the float range raises
    ConfigError, naming the first seed whose trial has one.
    """
    blocks = _count_blocks if _fastlane_eligible(config) else _unit_blocks
    values: list[float] = []
    # Out-of-range sums become inf or nan here, and _summarize rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        for first, cum, scores in blocks(config):
            # As step refuses a run that processes more than its stake.
            if config.initial_stake is not None and int(cum[..., -1].max()) > config.initial_stake:
                raise ConfigError("stake_history entries must be nonnegative")
            _unit_audit(cum, config, first)
            values += scores
        return _summarize(values, config)


@dataclass(frozen=True)
class HistogramBin:
    left: float
    right: float
    count: int
    density: float
    log_density: float


def make_histogram(values: Sequence[float], bin_width: float = 0.1) -> list[HistogramBin]:
    """Fixed-width bins aligned at integer multiples of the width.

    Density integrates to 1 over the emitted bins; empty bins are omitted,
    so log_density (natural log) is always finite. A width that leaves some
    value without an int64 bin index, or some bin without edges left < right
    or a finite density, is a ConfigError.
    """
    if bin_width <= 0:
        raise ConfigError(f"bin width must be positive, got {bin_width}")
    if not values:
        raise ConfigError("cannot bin an empty value list")
    n = len(values)
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.floor(values / bin_width)
        bad = ~(np.abs(scaled) < 2.0**63)  # not finite, or no int64 bin index
        if bad.any():
            raise ConfigError(f"bin width {bin_width} cannot bin value {values[bad][0]}")
        idx, counts = np.unique(scaled.astype(np.int64), return_counts=True)
        left, right, density = idx * bin_width, (idx + 1) * bin_width, counts / (n * bin_width)
    wrong = np.flatnonzero(~((left < right) & (right < math.inf) & (density < math.inf)))
    if wrong.size:
        i = wrong[0]
        raise ConfigError(
            f"bin width {bin_width} cannot represent bin [{left[i]}, {right[i]}) or its density"
        )
    return [
        HistogramBin(left=lo, right=hi, count=int(c), density=d, log_density=math.log(d))
        for lo, hi, c, d in zip(left, right, counts, density)
    ]


# =============================================================
# Vectorized count engine
# =============================================================
#
# Takes the discounted runs whose queue is a pair of class counts: one cost
# level under any order, or two under the cost order, in either mode and
# under any number of windows, as every optimal policy that SimulationConfig
# admits has. FCFS and bid orders interleave two classes by
# arrival, which counts cannot express, and the steady-state metric needs
# who left when, so those go to the unit-stake engine. Trials draw their
# arrivals through _draw_arrivals, as run_trial does, and keep only their
# per-period counts of low- and of high-cost arrivals. A heuristic's period
# loop is the recurrence of _unit_counts, through _free_tables; both read
# the window rule of _windows.
#
# Trials are independent, so the engine runs one block of trials at a time:
# it draws the block, runs its periods, and monte_carlo audits and scores
# it before the next is drawn. A block holds _BLOCK_CELLS // steps trials
# (at least one), so memory follows the block, not trials x steps. Each
# block pays the per-period numpy overhead again: on flagship (350 steps,
# 1,497 trials a block here) 1 << 15 cells took twice as long, and each
# doubling past 1 << 19 added about 25 MB of peak RSS for a few percent.
# The same overhead makes a call of a few trials slower here than on the
# unit-stake engine: at 350 steps they are even at about 11 trials.
#
# A block is drawn in chunks of _DRAW_CELLS // steps trials (46 at 350
# steps), each chunk in one _draw_arrivals call. A chunk's highs per period
# come from one running count of its high costs, read where each period's
# arrivals end, not from a split per trial. The chunk trades speed against
# memory: on flagship, drawing a whole block at once raised the peak RSS of
# a monte_carlo call from 56 to 90 MB and drew slower; 1 << 14 cells cost
# 3 MB over 1 << 12 and drew about 10% faster (2 cores, numpy 2.4).
_BLOCK_CELLS = 1 << 19
_DRAW_CELLS = 1 << 14


def _fastlane_eligible(config: SimulationConfig) -> bool:
    if config.metric != "discounted" or not isinstance(config.values, Discrete):
        return False
    levels = len(config.values.points)
    return levels == 1 or (levels == 2 and config.mechanism.order == "cost")


def _check_policy_fits(mech: OptimalMechanism, config: SimulationConfig) -> None:
    """Raise ModelMismatch unless the run has the constraint and the two cost
    points the policy was solved for."""
    costs = [mech.arrival_model.cost_low, mech.arrival_model.cost_high]
    points = sorted(config.values.points) if isinstance(config.values, Discrete) else None
    if config.constraints != mech.policy.constraints or points != costs:
        raise ModelMismatch(
            f"optimal policy solved for costs {costs} under {mech.policy.constraints}; "
            f"the run has values {config.values} under {config.constraints}"
        )


def _windows(config: SimulationConfig) -> list[tuple[int, int, int, int]]:
    """Each constraint (delta, T) as (T, a, b, den): where periods 1..t-T
    processed x, periods 1..t may process at most F(x) = x + (a - b*x) // den
    in all. That is x + delta, as (delta, 0, 1), or in fraction mode
    x + floor(delta * (stake0 - x)), as (stake0 * num, num, den). Both
    count passes read it."""
    fraction = config.constraints.mode is ConstraintMode.FRACTION_OF_STAKE
    return [(c.window, c.delta.numerator * (config.initial_stake if fraction else 1),
             c.delta.numerator if fraction else 0, c.delta.denominator) for c in config.constraints]


def _free_tables(config: SimulationConfig, reach: int) -> tuple[np.ndarray, list]:
    """A heuristic's capacity lookup and one table per window of _windows,
    for trials that process at most ``reach`` requests. As F(x) - x never
    grows with x and 0 <= x <= done <= reach, the slack of _unit_counts is
    lo + i for some i >= 0, whose capacity is lookup[i]; a table holds
    F(x) - lo for x = 0 .. reach. Both are capped where no read sees the
    excess (no trial has more than reach waiting), so both fit int64."""
    windows = _windows(config)
    lo = max(0, min((a - b * reach) // den for _, a, b, den in windows) - reach)
    hi = min(a // den for _, a, _, den in windows)
    capacity = config.mechanism.capacity
    lookup = np.array([min(capacity(s), reach) for s in range(lo, hi + 1)], dtype=np.int64)
    # Python ints wherever an intermediate could pass int64.
    big = max(max(a, b * reach, den) for _, a, b, den in windows) + reach
    xs = np.arange(reach + 1, dtype=np.int64 if big < 2**62 else object)
    tables = [(w, np.minimum(xs + (a - b * xs) // den - lo, hi - lo + reach).astype(np.int64))
              for w, a, b, den in windows]
    return lookup, tables


def _over_scale(units: np.ndarray, scale: int, out: np.ndarray | None = None) -> np.ndarray:
    """Exact sums of units over ``scale`` as floats, each rounded once as
    math.fsum rounds the costs, or nan past the float range: int64 and
    Python ints convert correctly rounded in bulk, and only a block where
    one overflows divides each alone. The scale is a power of two, at most
    2**1074, so the product never rounds: one below 2**-1021 comes from a
    sum below 2**53, which converts exactly, a multiple of 2**-1074."""
    if units.dtype == object:
        try:
            units = units.astype(np.float64)
        except OverflowError:
            divide = np.frompyfunc(lambda u: _or_nan(truediv, u, scale), 1, 1)
            return divide(units).astype(np.float64)
    return np.multiply(units, math.ldexp(1.0, 1 - scale.bit_length()), out=out)


def _count_blocks(
    config: SimulationConfig,
) -> Iterator[tuple[int, np.ndarray, Iterator[float]]]:
    """Yield, for each block of trials in trial order, the seed of its first
    trial, its cumulative processed counts (block x steps+1) and its
    discounted values, scored when read. A trial's queue is its low and high
    counts, as a model state's is (the low count alone in a one-level run).
    Queue costs charge the pending queue before removal: run_trial's penalty
    less the fees, each a sum of class units over one scale."""
    n = config.steps
    points = sorted(float(p) for p in config.values.points)
    units, scale = _exact_units(points)
    two = len(points) == 2
    weights = _discount_weights(config.discount, n)

    # From the ints, not the points: a Discrete may hold floats (5.0 -> float16).
    most = max(k for k, _ in config.arrival_counts.as_count_dist())
    small = np.min_scalar_type(most)
    # No queue holds more than n * most requests, so below 2**53 no sum rounds
    # and a period's cost is one sum; past it, what stays and what leaves
    # round apart, as run_trial rounds them. Rounding apart in every run
    # cost churn-fraction 28% and flagship 7% of their trial steps a second
    # (benchmarks/run.py, 2 cores).
    exact = units[-1] * n * most < 2**53

    def queue_units(low: np.ndarray, high: np.ndarray | None) -> np.ndarray:
        if not exact and max(int((low + high if two else low).max()), 1) * units[-1] >= 2**63:
            low, high = low.astype(object), high.astype(object) if two else None  # past int64
        return low * units[0] + high * units[1] if two else low * units[0]

    mech = config.mechanism
    optimal = isinstance(mech, OptimalMechanism)
    if not optimal:
        lookup, tables = _free_tables(config, n * most)

    block, stop = max(1, _BLOCK_CELLS // n), config.seed + config.trials
    chunk = max(1, _DRAW_CELLS // n)
    for first in range(config.seed, stop, block):
        m = min(block, stop - first)
        lows = np.empty((m, n), dtype=small)
        highs = np.empty((m, n), dtype=small) if two else None
        for i in range(0, m, chunk):
            j = min(i + chunk, m)
            rngs = [np.random.default_rng(seed) for seed in range(first + i, first + j)]
            counts, costs = _draw_arrivals(rngs, n, config.arrival_counts, config.values)
            if two:
                # seen[k]: the highs among the chunk's first k costs. Read
                # where each period's arrivals end, its differences are the
                # periods' highs, trial after trial.
                seen = np.concatenate([[0], np.cumsum(costs == points[1])])
                highs[i:j] = np.diff(seen[counts.cumsum()], prepend=0).reshape(counts.shape)
                counts -= highs[i:j]
            lows[i:j] = counts

        low = np.zeros(m, dtype=np.int64)
        high = np.zeros(m, dtype=np.int64) if two else None
        hist = np.zeros(m, dtype=np.int64)  # history 0: nothing processed yet
        streams = np.empty((m, n), dtype=np.float64)
        cum = np.zeros((m, n + 1), dtype=np.int64)
        for t in range(n):
            low += lows[:, t]
            if two:
                high += highs[:, t]
            if optimal:
                take = mech.policy.take(low, high, hist)
                hist = mech.policy.space.push[hist, take]
            else:
                # Each window's anchor: what periods 1 .. t-window+1 processed.
                free = None
                for w, table in tables:
                    x = table[cum[:, max(t - w + 1, 0)]]
                    free = x if free is None else np.minimum(free, x, out=free)
                free -= cum[:, t]
                take = lookup[np.maximum(free, 0, out=free)]
                np.minimum(take, low + high if two else low, out=take)
            queued = queue_units(low, high)
            if two:
                low, high = serve(low, high, take)
            else:
                low -= take
            if exact:
                streams[:, t] = queued
            else:
                left = queue_units(low, high)
                streams[:, t] = -_over_scale(left, scale) - _over_scale(queued - left, scale)
            np.add(cum[:, t], take, out=cum[:, t + 1])
        if exact:
            np.negative(_over_scale(streams, scale, out=streams), out=streams)
        yield first, cum, _discounted_values(streams, weights, config.discount)


# =============================================================
# Unit-stake engine
# =============================================================
#
# Every request a trial draws has stake 1 and bid 0, so a Mechanism processes
# exactly min(capacity(min_slack), waiting) requests each period, in any
# order: a count pass, which knows neither order nor metric, gives the counts
# from the arrival counts alone. The order decides only who leaves (under FCFS
# a prefix of the arrivals), and each metric is scored from counts and leavers.

# Trials are independent, so the engine runs one block of trials at a time,
# as the count engine does: it draws the block in one _draw_arrivals call,
# runs both passes on each trial of it, and monte_carlo checks and audits
# the block before one scorer reads it, so the draw, the audit and the
# scorer pay their overhead per block, not per trial.
# A block holds _UNIT_CELLS // steps trials (at least one): 11 at 350 steps,
# and one 10,000-step trial a block of its own. Blocks of 1 << 14 cells ran
# no faster, and added 2.0 MB to the peak RSS of `exitqueue simulate` on
# churn_fraction.cfg (1,000 trials), against 0.7 MB.
_UNIT_CELLS = 1 << 12

# A drawn request as the queue order sees it (stake 1, bid 0), and its
# position in the trial's arrival stream.
_Arrival = namedtuple("_Arrival", "cost bid index")


def _unit_counts(
    config: SimulationConfig, counts: list[int], capacity: dict[int, int]
) -> list[int]:
    """The count pass: a trial's cumulative processed counts, entry k being
    the total over periods 1..k. Period t's slack is the least F(x) - done
    over the windows of _windows, x being what periods 1..t-T processed and
    done what periods 1..t-1 did, clamped at 0. ``capacity`` memoizes the
    mechanism's capacity by slack. A run that processes more than its
    initial stake is walked through; monte_carlo refuses it."""
    windows = _windows(config)
    cum, done, pos = [0], 0, 0  # done: processed so far; pos: arrived so far
    for t, arrived in enumerate(counts, start=1):
        free = math.inf
        for w, a, b, den in windows:
            # x: processed before the window opens (pre-genesis anchors read 0).
            x = cum[t - w] if t > w else 0
            x += (a - b * x) // den - done
            if x < free:
                free = x
        if free < 0:
            free = 0
        take = capacity.get(free)
        if take is None:
            take = capacity[free] = config.mechanism.capacity(free)
        pos += arrived  # requests done .. pos-1 wait
        if take > pos - done:
            take = pos - done
        done += take
        cum.append(done)
    return cum


def _unit_order(order: str, counts: list[int], costs: np.ndarray, cum: list[int]) -> np.ndarray:
    """The order pass: the arrival-stream indices a trial served under a
    cost or bid order, in processing order, given its cumulative counts.
    The ranking is one ``mechanisms._by_cost_desc`` call over ``_Arrival``
    records, looked up at call time: a stable sort, so its order restricted
    to any waiting list is the order ``select`` gives that list. A heap of
    the waiting ranks replays the trial: each period pushes what arrived,
    then pops what it processed. Ranks are distinct, so a period with one
    arrival and an exit does both in one ``heappushpop``.
    """
    fields = zip(costs.tolist(), repeat(0.0), range(costs.size))
    arrivals = list(map(tuple.__new__, repeat(_Arrival), fields))  # no constructor call each
    ranking = mechanisms._by_cost_desc(arrivals, order)
    ranked = np.fromiter(map(attrgetter("index"), ranking), np.int64, costs.size)
    rank = np.empty_like(ranked)
    rank[ranked] = np.arange(costs.size)
    rank, heap, popped, pos = rank.tolist(), [], [], 0  # popped: ranks, in processing order
    for arrived, take in zip(counts, map(sub, cum[1:], cum)):
        if arrived == 1 and take:
            popped.append(heappushpop(heap, rank[pos]))
            pos += 1
            take -= 1
        elif arrived:
            for k in rank[pos : pos + arrived]:
                heappush(heap, k)
            pos += arrived
        while take:
            popped.append(heappop(heap))
            take -= 1
    return ranked[popped]


def _unit_audit(cum: np.ndarray, config: SimulationConfig, seed: int) -> None:
    """check_trace_feasible on every trial, vectorized over the anchor periods.

    ``cum`` holds cumulative processed counts, shape (..., n+1), one row per
    trial at seeds seed, seed+1, ... Every constraint's window from each
    anchor t0 = 0 .. n-1 must fit its capacity at the stake left after
    period t0; fraction capacities are floored in exact integers: in int64
    where every stake times the numerator fits, else in Python ints.
    """
    rows = cum.reshape(-1, cum.shape[-1])
    n = rows.shape[1] - 1
    opened = rows[:, :-1]
    fraction = config.constraints.mode is ConstraintMode.FRACTION_OF_STAKE
    bad = np.zeros(rows.shape[0], dtype=bool)
    for c in config.constraints:
        used = rows.take(np.minimum(np.arange(n) + c.window, n), axis=1)
        used -= opened
        if fraction:
            num, den = c.delta.numerator, c.delta.denominator
            # A stake left is at most the initial stake, and at least minus
            # what was processed.
            most = max(config.initial_stake, int(rows.max()), 1)
            fits = most * num < 2**63 and den < 2**63
            cap = config.initial_stake - (opened if fits else opened.astype(object))
            cap *= num
            cap //= den
        else:
            cap = c.delta.numerator
        bad |= (used > cap).any(axis=1)
    if bad.any():
        row = int(bad.argmax())
        raise FeasibilityViolation(
            f"{config.mechanism.name} produced an infeasible trace at seed "
            f"{seed + row}: {tuple(np.diff(rows[row]).tolist())}"
        )


def _unit_disutility(
    config: SimulationConfig, counts: np.ndarray, costs: np.ndarray, cum: np.ndarray,
    served: np.ndarray,
) -> Iterator[float]:
    """steady_state_disutility of each trial of a block, from who was served
    in which period."""
    m, n = counts.shape
    periods = np.tile(np.arange(1, n + 1), m)
    arrived = np.repeat(periods, counts.ravel())
    done = np.full(costs.size, n + 1)
    done[served] = np.repeat(periods, np.diff(cum).ravel())
    # Leftovers are charged as if processed in the final period.
    counted = done > config.burn_in
    delay = np.minimum(done, n)[counted] - arrived[counted]
    terms = -costs[counted] * delay
    trial = np.repeat(np.arange(m), counts.sum(axis=1, dtype=np.int64))[counted]
    for part in np.split(terms, np.cumsum(np.bincount(trial, minlength=m))[:-1]):
        if not part.size:
            raise NoWithdrawals(f"no withdrawals to average after burn_in = {config.burn_in}")
        yield _or_nan(math.fsum, part.tolist()) / part.size


def _unit_streams(
    counts: np.ndarray, costs: np.ndarray, cum: np.ndarray, served: np.ndarray
) -> np.ndarray:
    """Each trial's queue cost per period (block x steps): run_trial's
    penalty (arrived through t less processed through t) plus the costs
    processed in t, each a sum rounded as math.fsum rounds it, and nan in
    every period of a trial that drew an infinite cost.

    The block's finite costs become exact units over one scale (_exact_units
    of its distinct costs). ``came`` sums them in arrival order and ``went``
    in processing order, over the whole block; a trial's sums are
    differences from where its own stretch of each starts.
    """
    arrivals = counts.sum(axis=1, dtype=np.int64)
    finite = np.isfinite(costs)
    points, which = np.unique(np.where(finite, costs, 0.0), return_inverse=True)
    units, scale = _exact_units(points.tolist())
    total = sum(u * k for u, k in zip(units, np.bincount(which, minlength=len(units)).tolist()))
    # Every sum of the block is at most its total.
    units = np.array(units, dtype=np.int64 if total < 2**63 else object)[which]

    came = np.cumsum(np.concatenate([[0], units]))
    went = np.cumsum(np.concatenate([[0], units[served]]))
    a0 = (np.cumsum(arrivals) - arrivals)[:, None]
    d0 = (np.cumsum(cum[:, -1]) - cum[:, -1])[:, None]
    gone = went[cum + d0]
    waiting = came[np.cumsum(counts, axis=1, dtype=np.int64) + a0]
    waiting -= gone[:, 1:]
    waiting += went[d0] - came[a0]
    streams = _over_scale(waiting, scale)
    np.negative(streams, out=streams)
    streams -= _over_scale(np.diff(gone), scale)
    streams[np.repeat(np.arange(counts.shape[0]), arrivals)[~finite]] = np.nan
    return streams


def _unit_blocks(
    config: SimulationConfig,
) -> Iterator[tuple[int, np.ndarray, Iterator[float]]]:
    """Yield, for each block of trials in trial order, the seed of its first
    trial, its cumulative processed counts (block x steps+1) and its
    metric values, scored when read as run_trial and the metric functions
    would give them, each failure being the one they raise, but nan where a
    sum overflows."""
    n = config.steps
    weights = _discount_weights(config.discount, n) if config.metric == "discounted" else None
    order = config.mechanism.order
    capacity: dict[int, int] = {}
    block, stop = max(1, _UNIT_CELLS // n), config.seed + config.trials
    for first in range(config.seed, stop, block):
        rngs = [np.random.default_rng(seed) for seed in range(first, min(first + block, stop))]
        counts, costs = _draw_arrivals(rngs, n, config.arrival_counts, config.values)
        cum = np.empty((len(rngs), n + 1), dtype=np.int64)
        served, pos = [], 0
        ends = counts.sum(axis=1).cumsum().tolist()  # where each trial's costs end
        for i, (arrived, end) in enumerate(zip(counts.tolist(), ends)):
            cum[i] = walked = _unit_counts(config, arrived, capacity)
            went = (np.arange(walked[-1]) if order == "fcfs"
                    else _unit_order(order, arrived, costs[pos:end], walked))
            served.append(went + pos)  # into the block
            pos = end
        served = np.concatenate(served)
        if config.metric == "discounted":
            streams = _unit_streams(counts, costs, cum, served)
            yield first, cum, _discounted_values(streams, weights, config.discount)
        else:
            yield first, cum, _unit_disutility(config, counts, costs, cum, served)


# =============================================================
# Brute-force schedule oracle
# =============================================================


def brute_force_schedules(
    requests: Sequence[ExitRequest],
    constraints: ConstraintSet,
    horizon: int,
) -> list[tuple[int, ...]]:
    """Every feasible per-period processing-count vector for the instance.

    Enumerates by depth-first search over per-period counts, checking the
    sliding windows directly (independent of the slack computation it is
    used to test). Unit stakes and absolute constraints only; the node
    budget guards against accidental blow-ups.
    """
    if constraints.mode is not ConstraintMode.ABSOLUTE_COUNT:
        raise ConfigError("schedule enumeration supports absolute constraints only")
    if horizon < 1:
        raise ConfigError(f"horizon must be positive, got {horizon}")
    if any(r.stake != 1 for r in requests):
        raise ConfigError("schedule enumeration assumes unit stakes")
    arrived = [0] * (horizon + 1)
    for r in requests:
        if r.requested_at <= horizon:
            arrived[r.requested_at] += 1
    caps = [(int(c.delta), c.window) for c in constraints]

    budget_limit = 10_000_000
    nodes = 0
    out: list[tuple[int, ...]] = []
    counts: list[int] = []

    def recurse(t: int, available: int) -> None:
        nonlocal nodes
        if t > horizon:
            out.append(tuple(counts))
            return
        available += arrived[t]
        most = available
        for cap, window in caps:
            used = sum(counts[max(0, t - window) : t - 1])
            most = min(most, cap - used)
        for c in range(most + 1):
            nodes += 1
            if nodes > budget_limit:
                raise InstanceTooLarge(
                    f"schedule enumeration exceeded {budget_limit} nodes"
                )
            counts.append(c)
            recurse(t + 1, available - c)
            counts.pop()

    recurse(1, 0)
    return out
