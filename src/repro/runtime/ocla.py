"""Out-of-core Local Arrays (OCLAs).

An OCLA is one processor's share of a distributed out-of-core array: it knows
the processor rank, the local shape derived from the array descriptor, and
the Local Array File holding the data.  It is a thin convenience layer over
the I/O engine so kernels and generated node programs read like the paper's
pseudo-code ("Call I/O routine to read the ICLA of array A"): every slab it
fetches is one charged read into memory the caller holds.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import RuntimeExecutionError
from repro.hpf.array_desc import ArrayDescriptor
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
    ):
        self.descriptor = descriptor
        self.rank = int(rank)
        self.laf = laf
        self.engine = engine
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
        """Read a slab through the I/O engine: charged, and the data in EXECUTE."""
        return self.engine.read_slab(self.rank, self.laf, slab)

    def fetch_step(self, slab: Slab) -> Tuple[str, int, int]:
        """The lane step (``("read", nbytes, nrequests)``) of one fetch of ``slab``.

        With :meth:`load_slab` this is :meth:`fetch_slab` taken apart for an
        engine that charges its reads in a lane or a column block.
        """
        return self.engine.read_step(self.laf, slab)

    def load_slab(self, slab: Slab) -> Optional[np.ndarray]:
        """Read a slab's data uncharged; the caller charges :meth:`fetch_step`."""
        return self.engine.load_slab(self.rank, self.laf, slab)

    def store_step(self, slab: Slab) -> Tuple[str, int, int]:
        """The lane step (``("write", nbytes, nrequests)``) of one store of ``slab``."""
        return self.engine.write_step(self.laf, slab)

    def save_slab(self, slab: Slab, data: Optional[np.ndarray]) -> None:
        """Write a slab's data uncharged; the caller charges :meth:`store_step`."""
        self.engine.save_slab(self.rank, self.laf, slab, data)

    def check_extent(self, shape: Tuple[int, int]) -> None:
        """Refuse, before a lane charges them, slabs of ``shape`` this file would refuse."""
        self.engine.check_extent(self.laf, shape)

    def store_slab(self, slab: Slab, data: Optional[np.ndarray]) -> None:
        """Write a slab through the I/O engine; charged, and the data in EXECUTE."""
        self.engine.write_slab(self.rank, self.laf, slab, data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OutOfCoreLocalArray({self.descriptor.name!r}, rank={self.rank}, "
            f"shape={self.local_shape})"
        )
