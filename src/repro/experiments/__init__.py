"""Experiment harness: one module per table / figure of the paper.

* :mod:`repro.experiments.figure10` — effect of slab-size variation on the
  column-slab (naive) out-of-core GAXPY program (Figure 10).
* :mod:`repro.experiments.table1` — column-slab vs. row-slab vs. in-core for
  1K x 1K matrices on 4–64 processors (Table 1).
* :mod:`repro.experiments.table2` — slab-size selection for multiple arrays,
  2K x 2K matrices on 16 processors (Table 2).
* :mod:`repro.experiments.ablations` — additional studies: equal vs.
  proportional vs. searched memory allocation, per-slab vs. per-chunk I/O
  accounting (the value of reorganizing the on-disk storage order), and an
  analytic prefetch-overlap what-if the runtime does not model.

Every experiment has a paper-scale configuration (the defaults, evaluated
with the analytic estimator) and a scaled-down configuration used by the
integration tests and the ``execute`` mode demonstrations.
"""

from repro.experiments.figure10 import Figure10Config, run_figure10
from repro.experiments.table1 import Table1Config, run_table1
from repro.experiments.table2 import Table2Config, run_table2
from repro.experiments.ablations import (
    MemoryAllocationAblationConfig,
    run_memory_allocation_ablation,
    StorageOrderAblationConfig,
    run_storage_order_ablation,
    PrefetchAblationConfig,
    run_prefetch_ablation,
)

__all__ = [
    "Figure10Config",
    "run_figure10",
    "Table1Config",
    "run_table1",
    "Table2Config",
    "run_table2",
    "MemoryAllocationAblationConfig",
    "run_memory_allocation_ablation",
    "StorageOrderAblationConfig",
    "run_storage_order_ablation",
    "PrefetchAblationConfig",
    "run_prefetch_ablation",
]
