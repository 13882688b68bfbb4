"""Out-of-core Local Arrays (OCLAs).

An OCLA is one processor's share of a distributed out-of-core array: it knows
the processor rank, the local shape derived from the array descriptor, the
Local Array File holding the data, and (optionally) an In-core Local Array
used to stage slabs.  It is a thin convenience layer over the I/O engine so
kernels and generated node programs read like the paper's pseudo-code
("Call I/O routine to read the ICLA of array A").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import RuntimeExecutionError
from repro.hpf.array_desc import ArrayDescriptor
from repro.runtime.icla import InCoreLocalArray
from repro.runtime.io_engine import IOEngine
from repro.runtime.laf import LocalArrayFile
from repro.runtime.slab import Slab, SlabbingStrategy, make_slabs

__all__ = ["OutOfCoreLocalArray"]


class OutOfCoreLocalArray:
    """One processor's out-of-core local array."""

    def __init__(
        self,
        descriptor: ArrayDescriptor,
        rank: int,
        laf: LocalArrayFile,
        engine: IOEngine,
        icla: Optional[InCoreLocalArray] = None,
    ):
        self.descriptor = descriptor
        self.rank = int(rank)
        self.laf = laf
        self.engine = engine
        self.icla = icla
        expected = descriptor.local_shape(rank)
        if tuple(laf.shape) != tuple(expected):
            raise RuntimeExecutionError(
                f"LAF shape {laf.shape} does not match local shape {expected} of "
                f"array {descriptor.name!r} on rank {rank}"
            )

    # ------------------------------------------------------------------
    @property
    def local_shape(self):
        return self.laf.shape

    @property
    def dtype(self) -> np.dtype:
        return self.laf.dtype

    def slabs(self, strategy: SlabbingStrategy | str, slab_elements: int) -> List[Slab]:
        """Partition this local array into slabs of at most ``slab_elements`` elements."""
        return make_slabs(self.local_shape, strategy, slab_elements)

    # ------------------------------------------------------------------
    # staged access
    # ------------------------------------------------------------------
    def fetch_slab(self, slab: Slab) -> Optional[np.ndarray]:
        """Read a slab through the I/O engine, using the ICLA as a reuse buffer."""
        if self.icla is not None and self.icla.holds(slab):
            return self.icla.get(slab)
        data = self.engine.read_slab(self.rank, self.laf, slab)
        if self.icla is not None and data is not None:
            self.icla.load(slab, data)
        return data

    def charge_fetch(self, slab: Slab) -> None:
        """Charge a slab re-read served from a copy the kernel already holds.

        The machine pays exactly what :meth:`fetch_slab` would charge; no
        file access happens.  This keeps the simulated cost of re-streaming
        identical while the fast-path kernels skip redundant host I/O.  In
        particular a slab the ICLA holds is free here too, since
        :meth:`fetch_slab` would have served it from the reuse buffer.
        """
        if self.icla is not None and self.icla.holds(slab):
            self.icla.hits += 1
            return
        self.engine.charge_read_slab(self.rank, self.laf, slab)

    def fetch_step(self, slab: Slab) -> Tuple[str, int, int]:
        """The column-block step (``("read", nbytes, nrequests)``) of one fetch of ``slab``.

        With :meth:`load_slab` this is :meth:`fetch_slab` taken apart for an
        engine whose column blocks charge every re-stream of a slab it reads
        once; the ICLA reuse buffer is not consulted (no engine attaches one
        to a streamed operand).
        """
        return self.engine.read_step(self.laf, slab)

    def load_slab(self, slab: Slab) -> Optional[np.ndarray]:
        """Read a slab's data uncharged; the caller charges :meth:`fetch_step`."""
        return self.engine.load_slab(self.rank, self.laf, slab)

    def store_slab(self, slab: Slab, data: Optional[np.ndarray]) -> None:
        """Write a slab through the I/O engine and invalidate any stale ICLA copy."""
        self.engine.write_slab(self.rank, self.laf, slab, data)
        if self.icla is not None and self.icla.current_slab == slab and data is not None:
            self.icla.load(slab, data)

    def fetch_all(self) -> Optional[np.ndarray]:
        """Read the whole local array in one request (in-core baseline)."""
        return self.engine.read_full(self.rank, self.laf)

    def store_all(self, data: Optional[np.ndarray]) -> None:
        """Write the whole local array in one request (in-core baseline)."""
        self.engine.write_full(self.rank, self.laf, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OutOfCoreLocalArray({self.descriptor.name!r}, rank={self.rank}, "
            f"shape={self.local_shape})"
        )
