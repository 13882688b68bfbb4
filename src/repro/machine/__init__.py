"""Simulated distributed-memory machine.

The paper evaluates on the Intel Touchstone Delta: compute processors joined
by a mesh network, with dedicated I/O nodes in front of a shared set of disks
(its Concurrent File System).  That hardware no longer exists, so this
subpackage provides a parameterised stand-in:

* :mod:`repro.machine.parameters` — named parameter sets (a Delta-like preset,
  a Paragon-like preset, an SP-1-like preset and a modern-cluster preset),
* :mod:`repro.machine.disk` — the disk / I/O subsystem cost model,
* :mod:`repro.machine.network` — the interconnect cost model including
  tree-based collective operations,
* :mod:`repro.machine.processor` — the compute-node cost model,
* :mod:`repro.machine.clock` — per-processor simulated clocks,
* :mod:`repro.machine.metrics` — per-processor operation counters,
* :mod:`repro.machine.cluster` — the :class:`~repro.machine.cluster.Machine`
  object that bundles all of the above for ``P`` processors.

The simulation is a *cost accumulation* model, not a discrete-event
simulation: the paper's analysis depends only on the number of I/O requests,
the bytes moved, the arithmetic performed and the messages exchanged, all of
which are converted to seconds with affine cost functions.
"""

from repro.machine.parameters import (
    DiskParameters,
    NetworkParameters,
    ProcessorParameters,
    MachineParameters,
    touchstone_delta,
    intel_paragon,
    ibm_sp1,
    modern_cluster,
    PRESETS,
    get_preset,
)
from repro.machine.disk import DiskModel
from repro.machine.network import NetworkModel
from repro.machine.processor import ProcessorModel
from repro.machine.clock import ProcessorClock, ClockSet
from repro.machine.metrics import OperationCounters, MetricsSet
from repro.machine.cluster import ColumnLane, Machine

__all__ = [
    "DiskParameters",
    "NetworkParameters",
    "ProcessorParameters",
    "MachineParameters",
    "touchstone_delta",
    "intel_paragon",
    "ibm_sp1",
    "modern_cluster",
    "PRESETS",
    "get_preset",
    "DiskModel",
    "NetworkModel",
    "ProcessorModel",
    "ProcessorClock",
    "ClockSet",
    "OperationCounters",
    "MetricsSet",
    "ColumnLane",
    "Machine",
]
