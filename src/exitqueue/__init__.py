"""Rate-limited exit queue simulator: mechanisms, exact policies, payments.

The package models a proof-of-stake exit queue whose throughput is capped by
sliding-window constraints ("at most delta * stake over any T periods"). It
provides:

  * core: queue state, slack computation, and the feasibility auditor.
  * mechanisms: MINSLACK and its prioritized/scaled variants plus a
    fixed-rate baseline, each a queue order plus a capacity map.
  * mdp: the exact two-cost-class decision model, value iteration, the
    solved-policy mechanism, and marginal-externality payments.
  * simulate: seeded trials, the discounted and steady-state metrics,
    Monte Carlo aggregation, and brute-force schedule enumeration.
  * cli: `exitqueue` batch commands (solve / simulate / histogram /
    policy-diff / verify) over INI experiment configs.

The names below are the ones the README's library tour uses; everything
else is imported from its module.
"""

from .core import Constraint, ConstraintMode, ConstraintSet, ExitRequest, QueueState, step
from .mdp import OptimalMechanism, enumerate_states, vcg_estimate
from .mechanisms import Mechanism
from .simulate import brute_force_schedules, make_histogram, monte_carlo, run_trial

__version__ = "0.1.0"
