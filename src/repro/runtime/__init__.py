"""PASSION-style out-of-core runtime.

This subpackage implements the data storage model of the paper (Section 2.3):

* each processor's out-of-core local array (OCLA) lives in its own
  **Local Array File** (:mod:`repro.runtime.laf`),
* computation is strip-mined into **slabs** (:mod:`repro.runtime.slab`); the
  slab currently being computed on is the paper's In-core Local Array, an
  array in memory,
* slab reads/writes go through an accounting **I/O engine**
  (:mod:`repro.runtime.io_engine`), which charges every read in full,
* inter-processor data movement uses simulated **collectives**
  (:mod:`repro.runtime.collectives`), and
* a **virtual machine** (:mod:`repro.runtime.vm`) ties the pieces to the
  machine cost model, with an **executor** (:mod:`repro.runtime.executor`)
  that runs compiled node programs.
"""

from repro.runtime.slab import Slab, SlabbingStrategy, column_slabs, row_slabs, make_slabs
from repro.runtime.laf import LafHandleCache, LocalArrayFile
from repro.runtime.ocla import OutOfCoreLocalArray
from repro.runtime.io_engine import IOEngine
from repro.runtime.collectives import global_sum, broadcast
from repro.runtime.vm import VirtualMachine, OutOfCoreArray
from repro.runtime.executor import (
    ExecutionResult,
    NodeProgramExecutor,
    ProgramExecutor,
    program_reference,
    reduction_reference,
)

__all__ = [
    "Slab",
    "SlabbingStrategy",
    "column_slabs",
    "row_slabs",
    "make_slabs",
    "LafHandleCache",
    "LocalArrayFile",
    "OutOfCoreLocalArray",
    "IOEngine",
    "global_sum",
    "broadcast",
    "VirtualMachine",
    "OutOfCoreArray",
    "NodeProgramExecutor",
    "ProgramExecutor",
    "ExecutionResult",
    "reduction_reference",
    "program_reference",
]
