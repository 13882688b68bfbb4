"""Prefetching policies.

The paper notes that the out-of-core compiler "has to take into account ...
the prefetching/caching strategies used".  The runtime models the effect of
software prefetching as *overlap credit*: when the next slab is prefetched
while the current slab is being computed on, the visible cost of that read is
only the part that could not be hidden behind the computation.

Two policies are provided:

* :class:`NoPrefetch` — every read is fully visible (the paper's measured
  configuration),
* :class:`OverlapPrefetch` — a read following a compute phase is hidden up to
  the duration of that compute phase, scaled by an efficiency factor.

Kernels call :meth:`PrefetchPolicy.begin_compute` /
:meth:`PrefetchPolicy.charge_read` instead of charging reads directly when
they want prefetching applied; the policy then splits the read time into a
hidden part (charged as overlapped/idle-free) and a visible part.
"""

from __future__ import annotations

import dataclasses

from repro.exceptions import RuntimeExecutionError
from repro.machine.cluster import Machine

__all__ = ["PrefetchPolicy", "NoPrefetch", "OverlapPrefetch"]


class PrefetchPolicy:
    """Base class: tracks compute time available for hiding subsequent reads."""

    def __init__(self) -> None:
        self._available: dict[int, float] = {}

    def begin_compute(self, rank: int, seconds: float) -> None:
        """Record that ``rank`` just spent ``seconds`` computing (potential overlap window)."""
        if seconds < 0:
            raise RuntimeExecutionError(f"negative compute window {seconds}")
        self._available[rank] = self._available.get(rank, 0.0) + seconds

    def hidden_fraction(self) -> float:
        """Fraction of the overlap window usable for hiding I/O (0..1)."""
        return 0.0

    def window(self, rank: int) -> float:
        """Compute seconds ``rank`` has banked for hiding its next reads."""
        return self._available.get(rank, 0.0)

    def set_window(self, rank: int, seconds: float) -> None:
        """Store ``rank``'s window after a column block replayed its arithmetic."""
        self._available[rank] = seconds

    def charge_read(self, machine: Machine, rank: int, nbytes: int, nrequests: int) -> float:
        """Charge a (possibly partially hidden) read; returns visible seconds."""
        full = machine.params.disk.read_time(nbytes, nrequests, contention=machine.nprocs)
        window = self._available.get(rank, 0.0) * self.hidden_fraction()
        hidden = min(full, window)
        visible = full - hidden
        # Counters always see the full traffic; only the clock benefits.
        machine.disks[rank].read(nbytes, nrequests, contention=machine.nprocs)
        machine.metrics[rank].record_read(nbytes, nrequests)
        machine.clocks[rank].advance(visible, "io")
        self._available[rank] = max(0.0, self._available.get(rank, 0.0) - hidden)
        return visible


@dataclasses.dataclass
class NoPrefetch(PrefetchPolicy):
    """No overlap: reads are fully visible (the paper's baseline runtime)."""

    def __post_init__(self) -> None:
        super().__init__()

    def hidden_fraction(self) -> float:
        return 0.0


@dataclasses.dataclass
class OverlapPrefetch(PrefetchPolicy):
    """Hide reads behind preceding computation with the given efficiency.

    ``efficiency`` of 1.0 means the full preceding compute window can hide
    I/O; 0.5 means only half of it can (e.g. because of I/O-node contention).
    """

    efficiency: float = 1.0

    def __post_init__(self) -> None:
        super().__init__()
        if not 0.0 <= self.efficiency <= 1.0:
            raise RuntimeExecutionError(
                f"prefetch efficiency must be in [0, 1], got {self.efficiency}"
            )

    def hidden_fraction(self) -> float:
        return self.efficiency
