"""Interconnect cost model.

Models the collective operations used by the compiled node programs (global sum reductions, broadcasts, personalized
all-to-all for the transpose).  Collectives follow binomial-tree cost
formulas, which is what the NX library on the Touchstone Delta and early MPI
implementations used.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import CollectiveError
from repro.machine.parameters import NetworkParameters

__all__ = ["NetworkModel"]


@dataclasses.dataclass
class NetworkModel:
    """Cost model and counters for the machine interconnect."""

    params: NetworkParameters
    messages: int = 0
    bytes_moved: int = 0
    collectives: int = 0
    busy_time: float = 0.0

    # -- collectives -----------------------------------------------------------
    def global_sum(self, nbytes: int, nprocs: int, nelements: int | None = None) -> float:
        """Account for an all-reduce (global sum) of ``nbytes`` over ``nprocs`` processors.

        The paper's GAXPY kernel uses a global sum followed by a store on the
        owner, which is a reduce-to-owner; the binomial-tree reduce cost is
        charged to every participating processor (they proceed in lockstep).
        """
        self._check_collective(nbytes, nprocs)
        seconds = self.params.reduce_time(nbytes, nprocs, nelements)
        rounds = self.params.collective_rounds(nprocs)
        self.messages += rounds
        self.bytes_moved += rounds * nbytes
        self.collectives += 1
        self.busy_time += seconds
        return seconds

    def broadcast(self, nbytes: int, nprocs: int) -> float:
        """Account for a broadcast of ``nbytes`` to ``nprocs`` processors."""
        self._check_collective(nbytes, nprocs)
        seconds = self.params.broadcast_time(nbytes, nprocs)
        rounds = self.params.collective_rounds(nprocs)
        self.messages += rounds
        self.bytes_moved += rounds * nbytes
        self.collectives += 1
        self.busy_time += seconds
        return seconds

    def all_to_all(self, nbytes_per_pair: int, nprocs: int) -> float:
        """Account for a personalized all-to-all (one transpose slab exchange).

        Modelled as ``nprocs - 1`` point-to-point exchanges per processor.
        """
        self._check_collective(nbytes_per_pair, nprocs)
        exchanges = max(nprocs - 1, 0)
        seconds = exchanges * self.params.point_to_point_time(nbytes_per_pair)
        self.messages += exchanges
        self.bytes_moved += exchanges * nbytes_per_pair
        self.collectives += 1
        self.busy_time += seconds
        return seconds

    @staticmethod
    def _check_collective(nbytes: int, nprocs: int) -> None:
        if nbytes < 0:
            raise CollectiveError(f"negative collective payload {nbytes}")
        if nprocs < 1:
            raise CollectiveError(f"collective over non-positive processor count {nprocs}")

    # -- reporting --------------------------------------------------------------
    def reset(self) -> None:
        self.messages = 0
        self.bytes_moved = 0
        self.collectives = 0
        self.busy_time = 0.0

    def snapshot(self) -> dict:
        return {
            "messages": self.messages,
            "bytes_moved": self.bytes_moved,
            "collectives": self.collectives,
            "busy_time": self.busy_time,
        }
