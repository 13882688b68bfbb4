"""One-dimensional data distributions (the HPF ``DISTRIBUTE`` patterns).

A :class:`Distribution` maps the ``N`` indices of one template dimension onto
``P`` abstract processors along one dimension of a processor grid.  The three
HPF patterns are supported:

``BLOCK``
    Contiguous chunks of ``ceil(N / P)`` indices per processor (the pattern
    used throughout the paper: column-block for arrays ``A`` and ``C``,
    row-block for ``B``).

``CYCLIC``
    Round-robin assignment of single indices.

``CYCLIC(k)`` (block-cyclic)
    Round-robin assignment of blocks of ``k`` indices.

A fourth pseudo-distribution, ``ReplicatedDistribution``, models array
dimensions that are *not* distributed (every processor holds the full extent);
it is what an ``ALIGN (*, :)`` collapse produces for the collapsed dimension.

All distributions expose the same interface used by the compiler and runtime:

* :meth:`Distribution.owner` — which processor owns a global index,
* :meth:`Distribution.global_to_local` — translate a global index into the
  owner's local index,
* :meth:`Distribution.local_to_global` — inverse translation,
* :meth:`Distribution.local_size` — extent of the local array on a rank,
* :meth:`Distribution.local_indices` — the global indices owned by a rank,
* :meth:`Distribution.local_slice` — the same set as a ``slice``, where the
  pattern has one (everything but ``CYCLIC(k)``).

The scalar translations check their arguments and define the mapping; the
whole-set queries (``local_indices``, ``local_slice``, ``owners``,
``local_positions``) are closed forms over ``np.arange`` that never call them,
so staging an array costs a few vector expressions, not one call per index.

Indices are zero-based throughout the library (the paper's Fortran examples
are one-based; the front end converts).
"""

from __future__ import annotations

import abc
import math
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import DistributionError

__all__ = [
    "Distribution",
    "BlockDistribution",
    "CyclicDistribution",
    "BlockCyclicDistribution",
    "ReplicatedDistribution",
    "make_distribution",
]


class Distribution(abc.ABC):
    """Abstract mapping of ``extent`` global indices onto ``nprocs`` processors."""

    def __init__(self, extent: int, nprocs: int):
        extent = int(extent)
        nprocs = int(nprocs)
        if extent < 0:
            raise DistributionError(f"extent must be non-negative, got {extent}")
        if nprocs < 1:
            raise DistributionError(f"number of processors must be positive, got {nprocs}")
        self.extent = extent
        self.nprocs = nprocs

    # -- required interface --------------------------------------------------
    @abc.abstractmethod
    def owner(self, gindex: int) -> int:
        """Return the processor coordinate owning global index ``gindex``."""

    @abc.abstractmethod
    def global_to_local(self, gindex: int) -> int:
        """Return the local index of ``gindex`` on its owner."""

    @abc.abstractmethod
    def local_to_global(self, proc: int, lindex: int) -> int:
        """Return the global index of local index ``lindex`` on processor ``proc``."""

    @abc.abstractmethod
    def local_size(self, proc: int) -> int:
        """Return the number of indices owned by processor ``proc``."""

    # -- shared helpers -------------------------------------------------------
    def _check_gindex(self, gindex: int) -> int:
        gindex = int(gindex)
        if not 0 <= gindex < self.extent:
            raise DistributionError(f"global index {gindex} outside extent {self.extent}")
        return gindex

    def _check_proc(self, proc: int) -> int:
        proc = int(proc)
        if not 0 <= proc < self.nprocs:
            raise DistributionError(f"processor {proc} outside arrangement of size {self.nprocs}")
        return proc

    def _check_lindex(self, proc: int, lindex: int) -> int:
        lindex = int(lindex)
        size = self.local_size(proc)
        if not 0 <= lindex < size:
            raise DistributionError(
                f"local index {lindex} outside local extent {size} on processor {proc}"
            )
        return lindex

    @abc.abstractmethod
    def local_slice(self, proc: int) -> Optional[slice]:
        """The global indices owned by ``proc`` as a ``slice``, or ``None``.

        ``BLOCK`` owns ``lo:hi``, ``CYCLIC`` owns ``proc::nprocs`` and a
        replicated dimension owns ``0:extent``, so indexing a dense array
        with the slice is one strided view.  The bounds are always explicit
        and within ``[0, extent]``; a processor that owns nothing gets an
        empty slice.  ``CYCLIC(k)`` has no such form and returns ``None`` —
        callers fall back to :meth:`local_indices`.
        """

    def local_indices(self, proc: int) -> np.ndarray:
        """Return the (sorted) global indices owned by processor ``proc``."""
        return np.arange(self.extent, dtype=np.int64)[self.local_slice(proc)]

    def is_distributed(self) -> bool:
        """True when different processors own different indices."""
        return True

    def max_local_size(self) -> int:
        """Largest local extent over all processors (used for buffer sizing)."""
        return max(self.local_size(p) for p in range(self.nprocs))

    @abc.abstractmethod
    def owners(self) -> np.ndarray:
        """Vector of owners for every global index (length ``extent``)."""

    def local_positions(self) -> np.ndarray:
        """Vector of owner-local indices for every global index.

        The vector form of :meth:`global_to_local`: entry ``g`` is the local
        index of ``g`` on ``owners()[g]``.
        """
        positions = np.empty(self.extent, dtype=np.int64)
        for proc in range(self.nprocs):
            positions[self.local_indices(proc)] = np.arange(self.local_size(proc))
        return positions

    def iter_owned(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Yield ``(proc, global_indices)`` pairs for every processor."""
        for proc in range(self.nprocs):
            yield proc, self.local_indices(proc)

    # -- cosmetics ------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(extent={self.extent}, nprocs={self.nprocs})"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.extent == other.extent  # type: ignore[attr-defined]
            and self.nprocs == other.nprocs  # type: ignore[attr-defined]
            and self._signature() == other._signature()  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.extent, self.nprocs, self._signature()))

    def _signature(self) -> Tuple:
        return ()


class BlockDistribution(Distribution):
    """HPF ``BLOCK`` distribution: contiguous chunks of ``ceil(N/P)`` indices.

    The paper's arrays are distributed this way: with ``N = 1024`` and
    ``P = 16`` every processor owns 64 consecutive columns (or rows).
    When ``P`` does not divide ``N`` the last processors own fewer (possibly
    zero) indices, exactly as HPF prescribes.
    """

    def __init__(self, extent: int, nprocs: int):
        super().__init__(extent, nprocs)
        # HPF BLOCK uses the ceiling block size.
        self.block = math.ceil(self.extent / self.nprocs) if self.extent else 0

    def owner(self, gindex: int) -> int:
        gindex = self._check_gindex(gindex)
        return gindex // self.block

    def global_to_local(self, gindex: int) -> int:
        gindex = self._check_gindex(gindex)
        return gindex % self.block

    def local_to_global(self, proc: int, lindex: int) -> int:
        proc = self._check_proc(proc)
        lindex = self._check_lindex(proc, lindex)
        return proc * self.block + lindex

    def local_size(self, proc: int) -> int:
        proc = self._check_proc(proc)
        if self.extent == 0:
            return 0
        start = proc * self.block
        if start >= self.extent:
            return 0
        return min(self.block, self.extent - start)

    def local_bounds(self, proc: int) -> Tuple[int, int]:
        """Return the half-open global interval ``[lo, hi)`` owned by ``proc``."""
        proc = self._check_proc(proc)
        start = min(proc * self.block, self.extent)
        stop = min(start + self.block, self.extent)
        return start, stop

    def local_slice(self, proc: int) -> slice:
        return slice(*self.local_bounds(proc))

    def owners(self) -> np.ndarray:
        return np.arange(self.extent, dtype=np.int64) // max(self.block, 1)

    def _signature(self) -> Tuple:
        return (self.block,)


class CyclicDistribution(Distribution):
    """HPF ``CYCLIC`` distribution: index ``g`` lives on processor ``g mod P``."""

    def owner(self, gindex: int) -> int:
        gindex = self._check_gindex(gindex)
        return gindex % self.nprocs

    def global_to_local(self, gindex: int) -> int:
        gindex = self._check_gindex(gindex)
        return gindex // self.nprocs

    def local_to_global(self, proc: int, lindex: int) -> int:
        proc = self._check_proc(proc)
        lindex = self._check_lindex(proc, lindex)
        return lindex * self.nprocs + proc

    def local_size(self, proc: int) -> int:
        proc = self._check_proc(proc)
        if self.extent == 0:
            return 0
        full, rem = divmod(self.extent, self.nprocs)
        return full + (1 if proc < rem else 0)

    def local_slice(self, proc: int) -> slice:
        return slice(min(self._check_proc(proc), self.extent), self.extent, self.nprocs)

    def owners(self) -> np.ndarray:
        return np.arange(self.extent, dtype=np.int64) % self.nprocs


class BlockCyclicDistribution(Distribution):
    """HPF ``CYCLIC(k)`` distribution: blocks of ``k`` indices dealt round-robin."""

    def __init__(self, extent: int, nprocs: int, block: int):
        super().__init__(extent, nprocs)
        block = int(block)
        if block < 1:
            raise DistributionError(f"CYCLIC block size must be positive, got {block}")
        self.block = block

    def owner(self, gindex: int) -> int:
        gindex = self._check_gindex(gindex)
        return (gindex // self.block) % self.nprocs

    def global_to_local(self, gindex: int) -> int:
        gindex = self._check_gindex(gindex)
        block_index = gindex // self.block
        local_block = block_index // self.nprocs
        return local_block * self.block + (gindex % self.block)

    def local_to_global(self, proc: int, lindex: int) -> int:
        proc = self._check_proc(proc)
        lindex = self._check_lindex(proc, lindex)
        local_block = lindex // self.block
        within = lindex % self.block
        global_block = local_block * self.nprocs + proc
        return global_block * self.block + within

    def local_size(self, proc: int) -> int:
        proc = self._check_proc(proc)
        if self.extent == 0:
            return 0
        nblocks = math.ceil(self.extent / self.block)
        full, rem = divmod(nblocks, self.nprocs)
        owned_blocks = full + (1 if proc < rem else 0)
        if owned_blocks == 0:
            return 0
        size = owned_blocks * self.block
        # The globally last block may be partial; it belongs to processor
        # (nblocks - 1) % nprocs.
        last_block_owner = (nblocks - 1) % self.nprocs
        if proc == last_block_owner:
            tail = self.extent - (nblocks - 1) * self.block
            size -= self.block - tail
        return size

    def local_slice(self, proc: int) -> Optional[slice]:
        self._check_proc(proc)
        return None

    def local_indices(self, proc: int) -> np.ndarray:
        lindex = np.arange(self.local_size(proc), dtype=np.int64)
        global_block = lindex // self.block * self.nprocs + proc
        return global_block * self.block + lindex % self.block

    def owners(self) -> np.ndarray:
        return np.arange(self.extent, dtype=np.int64) // self.block % self.nprocs

    def _signature(self) -> Tuple:
        return (self.block,)


class ReplicatedDistribution(Distribution):
    """A non-distributed (collapsed / replicated) dimension.

    Every processor holds the entire extent locally.  ``owner`` is defined to
    be processor 0 purely so ownership queries have a deterministic answer;
    the compiler never generates communication for replicated dimensions.
    """

    def owner(self, gindex: int) -> int:
        self._check_gindex(gindex)
        return 0

    def global_to_local(self, gindex: int) -> int:
        return self._check_gindex(gindex)

    def local_to_global(self, proc: int, lindex: int) -> int:
        self._check_proc(proc)
        return self._check_lindex(proc, lindex)

    def local_size(self, proc: int) -> int:
        self._check_proc(proc)
        return self.extent

    def local_slice(self, proc: int) -> slice:
        self._check_proc(proc)
        return slice(0, self.extent)

    def owners(self) -> np.ndarray:
        return np.zeros(self.extent, dtype=np.int64)

    def is_distributed(self) -> bool:
        return False


def make_distribution(kind: str, extent: int, nprocs: int, block: int | None = None) -> Distribution:
    """Factory used by the directive layer.

    Parameters
    ----------
    kind:
        One of ``"block"``, ``"cyclic"``, ``"cyclic(k)"`` (pass ``block``),
        ``"*"``/``"replicated"``/``"collapsed"``.
    extent / nprocs / block:
        Dimension extent, number of processors along the dimension, and block
        size for block-cyclic distributions.
    """
    normalized = kind.strip().lower()
    if normalized == "block":
        return BlockDistribution(extent, nprocs)
    if normalized == "cyclic":
        if block is not None and block > 1:
            return BlockCyclicDistribution(extent, nprocs, block)
        return CyclicDistribution(extent, nprocs)
    if normalized in {"*", "replicated", "collapsed", "none"}:
        return ReplicatedDistribution(extent, 1)
    raise DistributionError(f"unknown distribution kind {kind!r}")
