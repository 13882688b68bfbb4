"""Ablation studies for the design choices the paper discusses qualitatively.

Three ablations are provided:

* **Memory allocation policy** (Section 4.2.1): divide the node memory budget
  between the competing arrays equally, proportionally to predicted traffic,
  or by a search over split fractions, and compare the predicted time of the
  resulting plans.
* **On-disk storage order** (implicit in the paper's "reorganize data storage
  on disks"): compare per-slab I/O accounting (storage order matches the
  slabbing, each slab is one contiguous request) with per-chunk accounting
  (storage left in the arrival order, one request per partial column/row).
* **Prefetch overlap** (the "prefetching/caching strategies" knob of the
  compilation model): how much of the row-slab version's remaining I/O time
  could be hidden behind computation — an analytic what-if on the plan's
  ``PlanCost``; the runtime does not model prefetching and charges every
  read in full.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import format_table
from repro.api import Session, WorkloadPoint
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
from repro.runtime.slab import row_slabs

__all__ = [
    "MemoryAllocationAblationConfig",
    "run_memory_allocation_ablation",
    "StorageOrderAblationConfig",
    "run_storage_order_ablation",
    "PrefetchAblationConfig",
    "run_prefetch_ablation",
]


# ---------------------------------------------------------------------------
# 1. memory allocation policies
# ---------------------------------------------------------------------------
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


# ---------------------------------------------------------------------------
# 2. storage order (per-slab vs per-chunk request accounting)
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class StorageOrderAblationConfig:
    n: int = 1024
    nprocs: int = 16
    slab_ratio: float = 0.25
    dtype: str = "float32"


def run_storage_order_ablation(
    config: Optional[StorageOrderAblationConfig] = None,
    params: Optional[MachineParameters] = None,
) -> Dict[str, object]:
    """Quantify the value of matching the on-disk storage order to the slabbing.

    When the streamed array's Local Array File is stored column-major but the
    compiler wants row slabs, every slab read touches one extent per local
    column instead of one per slab.  The ablation compares the predicted I/O
    request counts and times of the reorganized (matched) and unreorganized
    (mismatched) storage for the row-slab plan.
    """
    config = config or StorageOrderAblationConfig()
    params = params or touchstone_delta()
    compiled = Session(params=params).compile(WorkloadPoint(
        workload="gaxpy", n=config.n, nprocs=config.nprocs, version="row",
        slab_ratio=config.slab_ratio, dtype=config.dtype,
    )).program
    entry = compiled.plan.entry(compiled.analysis.streamed)
    local_shape = entry.local_shape
    slabs = row_slabs(local_shape, entry.lines_per_slab)
    itemsize = compiled.program.arrays[compiled.analysis.streamed].itemsize

    matched_requests = len(slabs)
    mismatched_requests = sum(s.contiguous_chunks(local_shape, order="F") for s in slabs)
    slab_bytes = sum(s.nbytes(itemsize) for s in slabs)

    disk = params.disk
    matched_time = disk.read_time(slab_bytes, matched_requests, contention=config.nprocs)
    mismatched_time = disk.read_time(slab_bytes, mismatched_requests, contention=config.nprocs)

    rows = [
        {"storage": "reorganized (row-major LAF)", "requests_per_proc": matched_requests,
         "read_time": matched_time},
        {"storage": "arrival order (column-major LAF)", "requests_per_proc": mismatched_requests,
         "read_time": mismatched_time},
    ]
    table = format_table(
        ["storage layout", "requests/proc (streamed array)", "read time (s)"],
        [[r["storage"], r["requests_per_proc"], f"{r['read_time']:.2f}"] for r in rows],
        title=(
            f"Storage order ablation: row-slab plan, {config.n}x{config.n}, "
            f"{config.nprocs} processors, slab ratio {config.slab_ratio:g}"
        ),
    )
    return {
        "rows": rows,
        "table": table,
        "request_inflation": mismatched_requests / max(matched_requests, 1),
        "config": config,
    }


# ---------------------------------------------------------------------------
# 3. prefetch overlap
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class PrefetchAblationConfig:
    n: int = 1024
    nprocs: int = 16
    slab_ratio: float = 0.25
    efficiencies: Sequence[float] = (0.0, 0.5, 1.0)
    dtype: str = "float32"


def run_prefetch_ablation(
    config: Optional[PrefetchAblationConfig] = None,
    params: Optional[MachineParameters] = None,
) -> Dict[str, object]:
    """Estimate how much of the row-slab plan's I/O could hide behind compute.

    An analytic what-if, arithmetic on the compiled plan's ``PlanCost``: the
    runtime does not model prefetching (every charged read is fully visible),
    so nothing here is executed or charged.  The overlap model is
    conservative: each slab read can be hidden by at most ``efficiency x``
    the compute time of the preceding slab.
    """
    config = config or PrefetchAblationConfig()
    params = params or touchstone_delta()
    compiled = Session(params=params).compile(WorkloadPoint(
        workload="gaxpy", n=config.n, nprocs=config.nprocs, version="row",
        slab_ratio=config.slab_ratio, dtype=config.dtype,
    )).program
    cost = compiled.plan.cost
    entry = compiled.plan.entry(compiled.analysis.streamed)
    nslabs = max(entry.num_slabs, 1)
    io_per_slab = cost.io_time / nslabs
    compute_per_slab = cost.compute_time / nslabs

    rows = []
    for efficiency in config.efficiencies:
        hidden_per_slab = min(io_per_slab, efficiency * compute_per_slab)
        visible_io = cost.io_time - hidden_per_slab * (nslabs - 1)  # the first read cannot be hidden
        total = visible_io + cost.compute_time + cost.comm_time
        rows.append(
            {
                "efficiency": efficiency,
                "visible_io_time": visible_io,
                "total_time": total,
                "savings": cost.total_time - total,
            }
        )
    table = format_table(
        ["overlap efficiency", "visible I/O (s)", "total (s)", "savings (s)"],
        [[f"{r['efficiency']:.1f}", f"{r['visible_io_time']:.2f}", f"{r['total_time']:.2f}",
          f"{r['savings']:.2f}"] for r in rows],
        title=(
            f"Prefetch ablation: row-slab plan, {config.n}x{config.n}, "
            f"{config.nprocs} processors, slab ratio {config.slab_ratio:g}"
        ),
    )
    return {"rows": rows, "table": table, "baseline": cost.total_time, "config": config}
