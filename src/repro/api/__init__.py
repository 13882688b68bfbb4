"""The unified Workload/Session API.

One kernel-agnostic surface over the whole library — every workload goes
through the same compile → run → sweep machinery:

* :class:`WorkloadPoint` — one configuration of one registered workload,
* :class:`Workload` + :func:`register_workload` — the contract a kernel
  family implements to become sweepable: a thin ``build_ir(point, params)``
  builder returning a :class:`Lowering`, from which the base class drives
  the unified ``ProgramIR → NodeProgram → executor`` pipeline in both
  modes (built-ins: ``gaxpy``, ``transpose``, ``elementwise`` and the
  mini-HPF ``hpf`` frontend),
* :class:`CompiledWorkload` — the cached, frozen result of compiling one
  point,
* :class:`RunRecord` — the shared, typed result schema (simulated seconds,
  time breakdown, per-processor I/O statistics, verified flag), and
* :class:`Session` — the facade owning machine parameters, run
  configuration, the compile LRU cache — the only cache of compiled
  workloads there is — and the thread-pool sweep driver.
"""

from repro.api.records import RunRecord
from repro.api.workload import (
    CompiledWorkload,
    Lowering,
    Workload,
    WorkloadPoint,
    available_workloads,
    get_workload,
    register_workload,
    unregister_workload,
)
from repro.api.session import Session, SweepResult

# Importing the built-ins registers them (gaxpy, transpose, elementwise, hpf).
import repro.api.builtin  # noqa: F401  (imported for its registration side effect)

__all__ = [
    "RunRecord",
    "WorkloadPoint",
    "Lowering",
    "CompiledWorkload",
    "Workload",
    "Session",
    "SweepResult",
    "register_workload",
    "unregister_workload",
    "get_workload",
    "available_workloads",
]
