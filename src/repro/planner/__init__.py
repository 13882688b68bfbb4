"""Cost-model-driven plan optimizer.

The compilation pipeline historically made every resource decision by fiat:
one node memory budget was split *evenly* across the statements of a program
and across the arrays of a statement, regardless of how I/O-bound each one
actually was.  This package turns those decisions into a search problem:

* :mod:`repro.planner.space` — what may vary: per-statement byte budgets,
  per-statement memory-allocation policies (the slabbing strategy follows
  from the Figure-14 reorganizer per candidate),
* :mod:`repro.planner.search` — the strategies (``greedy`` hill-climbing,
  ``beam``, full ``exhaustive`` grids) pricing candidates with the existing
  cost model (:meth:`~repro.core.cost_model.CostModel.price`) and lowering
  only the winner; every search seeds with the even split and returns a
  provably-no-worse plan,
* :mod:`repro.planner.budget` — exact integer budget splitting (the old
  ``//`` splits silently dropped remainder bytes),
* :mod:`repro.planner.plan_cache` — a persistent on-disk store of search
  winners keyed by (program fingerprint, machine parameters, budget,
  optimizer), so a plan is searched once and served many times.

Entry points: :func:`plan_whole_program` for direct use, the ``optimizer=``
argument of :func:`repro.core.pipeline.compile_whole_program`, and the
``optimize=`` knob of :class:`repro.api.Session` (default ``"greedy"``).
"""

from repro.planner.budget import split_by_weights, split_evenly
from repro.planner.plan_cache import (
    PlanCache,
    active_plan_cache,
    plan_fingerprint,
    use_plan_cache,
)
from repro.planner.space import (
    NO_POLICY,
    POLICY_NAMES,
    PlanChoice,
    budget_grid,
    even_choice,
    policy_instance,
    transfer_neighbors,
)
from repro.planner.search import (
    OPTIMIZERS,
    PlanDecision,
    normalize_optimizer,
    plan_whole_program,
)

__all__ = [
    "OPTIMIZERS",
    "NO_POLICY",
    "POLICY_NAMES",
    "PlanCache",
    "PlanChoice",
    "PlanDecision",
    "active_plan_cache",
    "budget_grid",
    "even_choice",
    "normalize_optimizer",
    "plan_fingerprint",
    "plan_whole_program",
    "policy_instance",
    "split_by_weights",
    "split_evenly",
    "transfer_neighbors",
    "use_plan_cache",
]
