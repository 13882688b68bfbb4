"""Data access reorganization (Section 4, Figure 14 of the paper).

Given the in-core-phase analysis, a memory budget and an allocation policy,
the reorganizer

1. enumerates the candidate slabbings of the streamed array (column slabs and
   row slabs — i.e. strip-mining along each dimension of the out-of-core
   array, as the Figure 14 algorithm prescribes),
2. divides the memory between the arrays for each candidate,
3. asks the cost model for the per-array I/O costs,
4. determines which array requires the largest amount of I/O, and
5. selects the strip-mining strategy with the lowest I/O cost for that array.

The decision records every candidate so experiments and tests can inspect
the alternatives (and so the ablation benchmarks can force the naive
choice).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.exceptions import CompilationError
from repro.core.analysis import InCorePhaseResult
from repro.core.cost_model import CostModel, PlanCost
from repro.core.memory_alloc import AllocationPolicy, ProportionalAllocation, _entries_from_split
from repro.core.stripmine import SlabPlanEntry
from repro.machine.parameters import MachineParameters
from repro.runtime.slab import SlabbingStrategy

__all__ = [
    "AccessPlan",
    "ReorganizationDecision",
    "reorganize",
    "choose_plan",
    "plan_from_slab_elements",
]


@dataclasses.dataclass(frozen=True)
class AccessPlan:
    """One complete candidate: slabbing of every array plus its predicted cost."""

    strategy: SlabbingStrategy
    entries: Dict[str, SlabPlanEntry]
    allocation: Dict[str, int]
    cost: PlanCost

    def entry(self, array: str) -> SlabPlanEntry:
        try:
            return self.entries[array]
        except KeyError as exc:
            raise CompilationError(f"plan has no entry for array {array!r}") from exc

    def describe(self) -> str:
        lines = [f"access plan [{self.strategy.value} slabs of the streamed array]"]
        for entry in self.entries.values():
            lines.append(f"  {entry.describe()}")
        lines.append("  " + self.cost.describe().replace("\n", "\n  "))
        return "\n".join(lines)


@dataclasses.dataclass
class ReorganizationDecision:
    """All candidates considered and the one chosen."""

    candidates: List[AccessPlan]
    chosen: AccessPlan
    dominant_array: str

    def candidate(self, strategy: SlabbingStrategy | str) -> AccessPlan:
        strategy = SlabbingStrategy.from_name(strategy)
        for plan in self.candidates:
            if plan.strategy is strategy:
                return plan
        raise CompilationError(f"no candidate with strategy {strategy}")

    @property
    def predicted_improvement(self) -> float:
        """Ratio of the worst candidate's I/O time to the chosen one's."""
        worst = max(plan.cost.io_time for plan in self.candidates)
        chosen = self.chosen.cost.io_time
        return worst / chosen if chosen > 0 else float("inf")

    def describe(self) -> str:
        lines = ["data access reorganization:"]
        for plan in self.candidates:
            marker = "  * " if plan is self.chosen else "    "
            lines.append(
                f"{marker}{plan.strategy.value:6s}: io={plan.cost.io_time:9.2f}s "
                f"total={plan.cost.total_time:9.2f}s "
                f"requests={plan.cost.io_requests:.0f} elements={plan.cost.io_elements:.3e}"
            )
        lines.append(f"  dominant array: {self.dominant_array}")
        lines.append(f"  predicted I/O improvement: {self.predicted_improvement:.1f}x")
        return "\n".join(lines)


def plan_from_slab_elements(
    analysis: InCorePhaseResult,
    strategy: SlabbingStrategy | str,
    slab_elements: Dict[str, int],
    cost_model: CostModel,
) -> AccessPlan:
    """Build a plan from explicit per-array slab sizes (used by the experiments).

    The experiments of the paper fix slab ratios / sizes directly instead of
    deriving them from a byte budget, so this bypass of the allocation policy
    is part of the public surface.
    """
    strategy = SlabbingStrategy.from_name(strategy)
    for name in (analysis.streamed, analysis.coefficient, analysis.result):
        if name not in slab_elements:
            raise CompilationError(f"slab_elements is missing array {name!r}")
    entries = _entries_from_split(analysis, strategy, slab_elements)
    cost = cost_model.estimate(analysis, strategy, entries)
    return AccessPlan(strategy=strategy, entries=entries, allocation=dict(slab_elements), cost=cost)


def reorganize(
    analysis: InCorePhaseResult,
    params: MachineParameters,
    nprocs: int,
    memory_budget_bytes: int,
    policy: Optional[AllocationPolicy] = None,
    strategies: Sequence[SlabbingStrategy | str] = (SlabbingStrategy.COLUMN, SlabbingStrategy.ROW),
) -> ReorganizationDecision:
    """Run the Figure 14 algorithm and return the decision."""
    if memory_budget_bytes <= 0:
        raise CompilationError(f"memory budget must be positive, got {memory_budget_bytes}")
    policy = policy or ProportionalAllocation()
    cost_model = CostModel(params, nprocs)
    itemsize = analysis.program.arrays[analysis.streamed].itemsize
    budget_elements = memory_budget_bytes // itemsize
    if budget_elements < 1:
        raise CompilationError(
            f"memory budget of {memory_budget_bytes} bytes holds no element of size {itemsize}"
        )

    candidates: List[AccessPlan] = []
    for strategy in strategies:
        strategy = SlabbingStrategy.from_name(strategy)
        allocation = policy.split(analysis, strategy, budget_elements, cost_model)
        entries = _entries_from_split(analysis, strategy, allocation)
        cost = cost_model.estimate(analysis, strategy, entries)
        candidates.append(
            AccessPlan(strategy=strategy, entries=entries, allocation=allocation, cost=cost)
        )
    if not candidates:
        raise CompilationError("no candidate strategies were provided")
    return choose_plan(candidates)


def choose_plan(candidates: List[AccessPlan]) -> ReorganizationDecision:
    """Figure 14: find the array with the largest I/O requirement, then pick the
    strategy that minimises its cost (ties and practical sanity are resolved
    with the full predicted I/O time)."""
    reference = max(candidates, key=lambda plan: plan.cost.io_time)
    dominant_array = reference.cost.dominant_array()
    chosen = min(
        candidates,
        key=lambda plan: (plan.cost.arrays[dominant_array].total_elements, plan.cost.io_time),
    )
    return ReorganizationDecision(
        candidates=candidates,
        chosen=chosen,
        dominant_array=dominant_array,
    )
