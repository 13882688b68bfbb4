"""The memory allocation ablation (Section 4.2.1, the claim behind Table 2).

Divide the node memory budget between the competing arrays equally,
proportionally to predicted traffic, or by a search over split fractions,
and compare the predicted time of the resulting plans.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.core.analysis import analyze_program
from repro.core.ir import build_gaxpy_ir
from repro.core.memory_alloc import (
    AllocationPolicy,
    EqualAllocation,
    ProportionalAllocation,
    SearchAllocation,
)
from repro.core.reorganize import reorganize
from repro.machine.parameters import MachineParameters, touchstone_delta

__all__ = [
    "MemoryAllocationAblationConfig",
    "run_memory_allocation_ablation",
]


@dataclasses.dataclass
class MemoryAllocationAblationConfig:
    n: int = 2048
    nprocs: int = 16
    memory_budget_bytes: int = 1024 * 1024   # 1 MB of ICLA space per node
    dtype: str = "float32"


def run_memory_allocation_ablation(
    config: Optional[MemoryAllocationAblationConfig] = None,
    params: Optional[MachineParameters] = None,
) -> Dict[str, object]:
    """Compare allocation policies at a fixed memory budget."""
    config = config or MemoryAllocationAblationConfig()
    params = params or touchstone_delta()
    policies: Sequence[AllocationPolicy] = (
        EqualAllocation(),
        ProportionalAllocation(),
        SearchAllocation(),
    )
    program = build_gaxpy_ir(config.n, config.nprocs, dtype=config.dtype)
    analysis = analyze_program(program)

    rows: List[Dict[str, object]] = []
    for policy in policies:
        decision = reorganize(
            analysis, params, config.nprocs, config.memory_budget_bytes, policy=policy
        )
        chosen = decision.chosen
        rows.append(
            {
                "policy": policy.name,
                "strategy": chosen.strategy.value,
                "slab_a_elements": chosen.allocation[analysis.streamed],
                "slab_b_elements": chosen.allocation[analysis.coefficient],
                "predicted_io_time": chosen.cost.io_time,
                "predicted_total_time": chosen.cost.total_time,
            }
        )
    table = format_table(
        ["policy", "strategy", "slab A (elems)", "slab B (elems)", "io time (s)", "total (s)"],
        [
            [r["policy"], r["strategy"], r["slab_a_elements"], r["slab_b_elements"],
             f"{r['predicted_io_time']:.2f}", f"{r['predicted_total_time']:.2f}"]
            for r in rows
        ],
        title=(
            f"Memory allocation ablation: {config.n}x{config.n}, {config.nprocs} processors, "
            f"{config.memory_budget_bytes // (1024 * 1024)} MB budget"
        ),
    )
    return {"rows": rows, "table": table, "config": config}
