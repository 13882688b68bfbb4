"""repro — out-of-core data-parallel compilation with data access reorganization.

A from-scratch reproduction of Bordawekar, Choudhary and Thakur,
"Data Access Reorganizations in Compiling Out-of-core Data Parallel Programs
on Distributed Memory Machines" (NPAC SCCS-622 / IPPS).

The recommended entry point is the unified Session API (:mod:`repro.api`)::

    from repro import Session, WorkloadPoint

    session = Session()
    record = session.run(
        WorkloadPoint("gaxpy", n=128, nprocs=4, version="row", slab_ratio=0.25)
    )
    print(record.describe())

A :class:`~repro.api.Session` owns the machine model, the run configuration,
a compile LRU cache and a thread-pool sweep driver; every registered workload
(``gaxpy``, ``transpose``, ``elementwise`` and mini-HPF source programs via
``session.compile(source=...)``) shares the same compile → run → sweep
surface and reports the same :class:`~repro.api.RunRecord` schema, in both
``ESTIMATE`` (analytic machine model) and ``EXECUTE`` (real files + NumPy,
verified) mode.

The layers underneath remain importable directly:

* a mini-HPF front end (:mod:`repro.hpf`),
* a simulated distributed-memory machine (:mod:`repro.machine`),
* a PASSION-style out-of-core runtime and the execution engines of every
  statement kind (:mod:`repro.runtime`),
* the out-of-core compiler with I/O cost estimation, access reorganization
  and memory allocation (:mod:`repro.core`),
* analytic cost formulas and report formatting (:mod:`repro.analysis`), and
* the experiment harness regenerating every table and figure of the paper
  (:mod:`repro.experiments`).
"""

from repro.config import ExecutionMode, RunConfig, default_config
from repro.exceptions import ReproError

__version__ = "1.1.0"

__all__ = [
    "ExecutionMode",
    "RunConfig",
    "default_config",
    "ReproError",
    "__version__",
]


def _load_public_api() -> None:
    """Re-export the most frequently used classes at package level.

    Kept in a helper so the imports happen lazily enough for partial
    installations (e.g. documentation builds) to still import ``repro``.
    """
    global Machine, ProcessorGrid, Template, Alignment, ArrayDescriptor
    global compile_program, compile_whole_program, compile_gaxpy, compile_source
    global VirtualMachine, NodeProgramExecutor, ProgramExecutor
    global Session, SweepResult, WorkloadPoint, CompiledWorkload, RunRecord, Workload, Lowering
    global register_workload, get_workload, available_workloads
    global PlanCache, PlanDecision, plan_whole_program
    from repro.machine import Machine  # noqa: F401
    from repro.hpf import ProcessorGrid, Template, Alignment, ArrayDescriptor, compile_source  # noqa: F401
    from repro.core import compile_program, compile_whole_program, compile_gaxpy  # noqa: F401
    from repro.runtime import VirtualMachine, NodeProgramExecutor, ProgramExecutor  # noqa: F401
    from repro.planner import PlanCache, PlanDecision, plan_whole_program  # noqa: F401
    from repro.api import (  # noqa: F401
        CompiledWorkload,
        Lowering,
        RunRecord,
        Session,
        SweepResult,
        Workload,
        WorkloadPoint,
        available_workloads,
        get_workload,
        register_workload,
    )

    __all__.extend(
        [
            "Machine",
            "ProcessorGrid",
            "Template",
            "Alignment",
            "ArrayDescriptor",
            "compile_source",
            "compile_program",
            "compile_whole_program",
            "compile_gaxpy",
            "VirtualMachine",
            "NodeProgramExecutor",
            "ProgramExecutor",
            "Session",
            "SweepResult",
            "WorkloadPoint",
            "CompiledWorkload",
            "Lowering",
            "RunRecord",
            "Workload",
            "register_workload",
            "get_workload",
            "available_workloads",
            "PlanCache",
            "PlanDecision",
            "plan_whole_program",
        ]
    )


_load_public_api()
