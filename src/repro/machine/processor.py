"""Compute-node cost model.

Converts floating point operations and local memory traffic into simulated
seconds, and enforces the node memory budget that drives strip-mining: the
In-core Local Arrays (slabs) of all out-of-core arrays must together fit in
``memory_bytes``.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import MachineConfigurationError
from repro.machine.parameters import ProcessorParameters

__all__ = ["ProcessorModel"]


@dataclasses.dataclass
class ProcessorModel:
    """Cost model and counters for one compute node."""

    params: ProcessorParameters
    rank: int = 0
    flops: float = 0.0
    bytes_copied: int = 0
    busy_time: float = 0.0

    def compute(self, flops: float) -> float:
        """Account for ``flops`` floating point operations; return seconds."""
        if flops < 0:
            raise MachineConfigurationError(f"negative flop count {flops}")
        seconds = self.params.compute_time(flops)
        self.flops += flops
        self.busy_time += seconds
        return seconds

    # -- memory budget ----------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return self.params.memory_bytes

    def fits_in_memory(self, nbytes: int) -> bool:
        """True when a working set of ``nbytes`` fits in node memory."""
        return 0 <= nbytes <= self.params.memory_bytes

    # -- reporting ----------------------------------------------------------------
    def reset(self) -> None:
        self.flops = 0.0
        self.bytes_copied = 0
        self.busy_time = 0.0

    def snapshot(self) -> dict:
        return {
            "rank": self.rank,
            "flops": self.flops,
            "bytes_copied": self.bytes_copied,
            "busy_time": self.busy_time,
        }
