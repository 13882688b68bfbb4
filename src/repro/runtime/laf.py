"""Local Array Files (LAFs).

The data storage model of the paper stores the out-of-core local array of
each processor in a separate file owned by that processor: its Local Array
File.  The node program explicitly reads slabs from and writes slabs into the
LAF.

Here a LAF is a real file on the host filesystem holding the local array in
either column-major (``'F'``) or row-major (``'C'``) element order.  The
storage order is chosen by the compiler so that the slabs it plans to read
are contiguous on disk — this is the "reorganizing data storage on disks"
part of the paper's optimization.  Access goes through NumPy memory maps,
and every access reports how many contiguous file extents it touched so the
I/O engine can charge request counts faithfully.

Fast path: a LAF keeps one lazily opened, persistent ``np.memmap`` handle
and reuses it across slab accesses instead of paying a file open plus memmap
construction per access.  The handle is invalidated by :meth:`close` /
:meth:`delete`; ``close`` flushes it (so writes can skip per-access ``flush``
calls unless ``sync=True`` is requested) while ``delete`` drops it unflushed,
because the file goes with it.  A :class:`LafHandleCache` bounds
how many handles are simultaneously open so runs with hundreds of LAFs do
not exhaust file descriptors; evicted handles are flushed and transparently
reopened on the next access.  None of this changes what the simulated
machine is charged: that is the I/O engine's business.
"""

from __future__ import annotations

import os
import uuid
from collections import OrderedDict
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import IOEngineError, SlabCorruptionError
from repro.resilience.checksums import SlabManifest, slab_checksum
from repro.runtime.slab import Slab

__all__ = ["LafHandleCache", "LocalArrayFile"]


class LafHandleCache:
    """Bounded LRU registry of open :class:`LocalArrayFile` memmap handles.

    A virtual machine creates one cache and hands it to every LAF it owns;
    whenever a LAF opens or touches its persistent handle it is moved to the
    most-recently-used end, and the least-recently-used handle is released
    (flushed and dropped, the file kept intact) once more than ``capacity``
    handles are open.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise IOEngineError(f"handle cache capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._open: "OrderedDict[int, LocalArrayFile]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._open)

    def touch(self, laf: "LocalArrayFile") -> None:
        """Record that ``laf``'s handle is open and was just used."""
        key = id(laf)
        if key in self._open:
            self._open.move_to_end(key)
            return
        self._open[key] = laf
        while len(self._open) > self.capacity:
            _, victim = self._open.popitem(last=False)
            self.evictions += 1
            victim._release_handle(unregister=False)

    def discard(self, laf: "LocalArrayFile") -> None:
        """Forget ``laf`` (its handle was released by the file itself)."""
        self._open.pop(id(laf), None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LafHandleCache(open={len(self._open)}/{self.capacity}, evictions={self.evictions})"


class LocalArrayFile:
    """One processor's on-disk local array.

    Parameters
    ----------
    path:
        File path.  Parent directories are created on demand.
    shape:
        Local array shape ``(rows, cols)``.
    dtype:
        Element type.
    order:
        ``'F'`` (column-major, default — natural for the paper's
        column-oriented Fortran programs) or ``'C'`` (row-major).
    create:
        When true the file is created (zero-filled) if it does not exist.
    handle_cache:
        Optional :class:`LafHandleCache` bounding the number of
        simultaneously open memmap handles across many LAFs.
    array_name / rank:
        Logical identity of this file (which array, which processor) used in
        error messages and :class:`~repro.exceptions.SlabCorruptionError`.
    manifest:
        Optional :class:`~repro.resilience.checksums.SlabManifest`.  When
        present, slab writes record checksums, exact-slab reads verify them,
        and :meth:`verify_checksums` can audit the whole file.  Host-side
        only; the simulated machine never sees it.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        shape: Tuple[int, int],
        dtype: np.dtype | str = np.float64,
        order: str = "F",
        create: bool = True,
        handle_cache: Optional[LafHandleCache] = None,
        *,
        array_name: str = "",
        rank: Optional[int] = None,
        manifest: Optional[SlabManifest] = None,
    ):
        self.path = Path(path)
        self.shape = (int(shape[0]), int(shape[1]))
        if self.shape[0] < 0 or self.shape[1] < 0:
            raise IOEngineError(f"negative local array shape {shape}")
        self.dtype = np.dtype(dtype)
        order = str(order).upper()
        if order not in ("F", "C"):
            raise IOEngineError(f"storage order must be 'F' or 'C', got {order!r}")
        self.order = order
        self.array_name = str(array_name)
        self.rank = rank
        self.manifest = manifest
        self._closed = False
        self._mm: Optional[np.memmap] = None
        self._handle_cache = handle_cache
        if create:
            self._ensure_file()

    @property
    def label(self) -> str:
        """Human-readable identity: ``array[pRANK]`` or the file name."""
        if self.array_name:
            return (f"{self.array_name}[p{self.rank}]" if self.rank is not None
                    else self.array_name)
        return self.path.name

    # ------------------------------------------------------------------
    # file management
    # ------------------------------------------------------------------
    @property
    def nelements(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self) -> int:
        return self.nelements * self.dtype.itemsize

    def _ensure_file(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists() or self.path.stat().st_size != self.nbytes:
            with open(self.path, "wb") as handle:
                if self.nbytes:
                    handle.truncate(self.nbytes)

    def _check_open(self) -> None:
        if self._closed:
            raise IOEngineError(f"local array file {self.path} is closed")

    def _handle(self) -> np.memmap:
        """The persistent read/write memmap, opened lazily and reused."""
        self._check_open()
        if self._mm is None:
            self._ensure_file()
            self._mm = np.memmap(
                self.path, dtype=self.dtype, mode="r+", shape=self.shape, order=self.order
            )
        if self._handle_cache is not None:
            self._handle_cache.touch(self)
        return self._mm

    def _release_handle(self, unregister: bool = True) -> None:
        """Flush and drop the persistent handle; the file stays valid.

        A failed flush surfaces as :class:`IOEngineError` naming the array
        and rank — never silently, and never with the stale handle kept
        around (the handle is dropped either way).
        """
        mm, self._mm = self._mm, None
        try:
            if mm is not None:
                try:
                    mm.flush()
                except OSError as exc:
                    raise IOEngineError(
                        f"flushing local array file {self.label} ({self.path}) failed: {exc}"
                    ) from exc
                finally:
                    del mm
        finally:
            if unregister and self._handle_cache is not None:
                self._handle_cache.discard(self)

    @property
    def handle_open(self) -> bool:
        """True while the persistent memmap handle is open."""
        return self._mm is not None

    def flush(self) -> None:
        """Force buffered writes of the open handle to disk."""
        if self._mm is not None:
            self._mm.flush()

    def exists(self) -> bool:
        return self.path.exists()

    def close(self) -> None:
        """Flush, drop the handle and mark the file closed; further access raises.

        Idempotent: the first call does the work (and surfaces any pending
        flush failure as :class:`IOEngineError`); repeat calls are no-ops and
        never re-raise.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._release_handle()
        finally:
            try:
                self.sync_manifest()
            except OSError:  # manifest persistence is best-effort on close
                pass

    def delete(self) -> None:
        """Drop the mapping and remove the backing file and its checksum sidecar.

        Nothing is written back: the dirty pages belong to a file that is
        unlinked here, so an ``msync`` (or saving the sidecar) would be I/O
        for data nobody can read again.  Only :meth:`close` and :meth:`flush`
        write back, and only they can raise a flush error.  Idempotent: a
        missing file is not an error and repeat calls are no-ops.
        """
        self._closed = True
        self._mm = None
        if self._handle_cache is not None:
            self._handle_cache.discard(self)
        manifest, self.manifest = self.manifest, None
        self.path.unlink(missing_ok=True)
        if manifest is not None and manifest.path is not None:
            manifest.path.unlink(missing_ok=True)

    def sync_manifest(self) -> None:
        """Persist the checksum manifest sidecar if it has unsaved entries."""
        if self.manifest is not None and self.manifest.path is not None and self.manifest.dirty:
            self.manifest.save()

    # ------------------------------------------------------------------
    # whole-array access
    # ------------------------------------------------------------------
    def write_full(self, data: np.ndarray, sync: bool = False) -> None:
        """Write the entire local array to the file.

        Writes land in the persistent memory map; ``sync=True`` forces them
        to disk immediately, otherwise they are flushed at the latest in
        :meth:`close` (or when the handle cache evicts the handle).
        """
        data = np.asarray(data, dtype=self.dtype)
        if data.shape != self.shape:
            raise IOEngineError(
                f"write_full: data shape {data.shape} does not match LAF shape {self.shape}"
            )
        if self.manifest is not None:
            self.manifest.record_full(self.shape, slab_checksum(data))
        if self.nelements == 0:
            self._check_open()
            return
        mm = self._handle()
        mm[...] = data
        if sync:
            mm.flush()

    def read_full(self) -> np.ndarray:
        """Read the entire local array from the file (verifying every checksum)."""
        if self.nelements == 0:
            self._check_open()
            return np.zeros(self.shape, dtype=self.dtype)
        data = np.array(self._handle())
        self._verify_against_manifest(data)
        return data

    def column_view(self, start: int, stop: int) -> np.ndarray:
        """Local columns ``[start, stop)``, every row, as a view of the file.

        No copy and no checksum check: the caller audits the file first
        (:meth:`verify_checksums`) and copies the view out, as
        :meth:`~repro.runtime.vm.OutOfCoreArray.column_reader` does.
        """
        if self.nelements == 0:
            self._check_open()
            return np.zeros((self.shape[0], stop - start), dtype=self.dtype)
        return self._handle()[:, start:stop]

    # ------------------------------------------------------------------
    # slab access
    # ------------------------------------------------------------------
    def _check_slab(self, slab: Slab) -> None:
        if slab.row_stop > self.shape[0] or slab.col_stop > self.shape[1]:
            raise IOEngineError(f"{slab.describe()} exceeds local shape {self.shape}")

    def read_slab(self, slab: Slab) -> np.ndarray:
        """Read one slab; returns a freshly allocated array of the slab shape.

        When this file carries a checksum manifest and the exact slab was
        recorded by an earlier write, the bytes read back are verified and a
        mismatch raises :class:`~repro.exceptions.SlabCorruptionError`.
        """
        self._check_slab(slab)
        if slab.nelements == 0:
            self._check_open()
            return np.zeros(slab.shape, dtype=self.dtype)
        data = np.array(self._handle()[slab.row_slice, slab.col_slice])
        if self.manifest is not None and self.manifest.verifiable:
            key = self._slab_key(slab)
            if self.manifest.matches(key, data) is False:
                raise self._corruption_error(key)
        return data

    def write_slab(self, slab: Slab, data: np.ndarray, sync: bool = False) -> None:
        """Write one slab back to the file (flushed by ``close`` unless ``sync``)."""
        self._check_slab(slab)
        data = np.asarray(data, dtype=self.dtype)
        if data.shape != slab.shape:
            raise IOEngineError(
                f"write_slab: data shape {data.shape} does not match {slab.describe()}"
            )
        if self.manifest is not None:
            self.manifest.record(self._slab_key(slab), slab_checksum(data))
        if slab.nelements == 0:
            self._check_open()
            return
        mm = self._handle()
        mm[slab.row_slice, slab.col_slice] = data
        if sync:
            mm.flush()

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    @staticmethod
    def _slab_key(slab: Slab) -> Tuple[int, int, int, int]:
        return (int(slab.row_start), int(slab.row_stop),
                int(slab.col_start), int(slab.col_stop))

    def _corruption_error(self, key: Tuple[int, int, int, int]) -> SlabCorruptionError:
        return SlabCorruptionError(
            f"checksum mismatch reading rows [{key[0]}, {key[1]}) x "
            f"cols [{key[2]}, {key[3]}) of local array file {self.label} ({self.path})",
            array=self.array_name or self.path.name,
            rank=self.rank,
            slab_key=key,
        )

    def _verify_against_manifest(self, full: np.ndarray) -> None:
        """Check every recorded slab checksum against in-memory full data."""
        if self.manifest is None or not self.manifest.verifiable:
            return
        for key, expected in self.manifest.entries.items():
            piece = full[key[0]:key[1], key[2]:key[3]]
            if slab_checksum(piece) != expected:
                raise self._corruption_error(key)

    def verify_checksums(self) -> int:
        """Re-read the file and verify every recorded slab checksum.

        Returns the number of slabs verified; raises
        :class:`~repro.exceptions.SlabCorruptionError` on the first mismatch.
        Used at statement boundaries and when validating a checkpoint.
        """
        if self.manifest is None or not self.manifest.verifiable or not self.manifest.entries:
            return 0
        if self.nelements:
            self._verify_against_manifest(np.asarray(self._handle()))
        return len(self.manifest.entries)

    def _inject_corruption(self, slab: Slab, mode: str) -> None:
        """Damage the just-written slab on disk (fault injection only).

        ``"torn"`` loses the trailing half of the slab's rows (single-row
        slabs lose trailing columns); ``"bitflip"`` flips every bit of one
        byte inside the slab.  The checksum manifest is deliberately left
        describing the intended data, so the damage is detectable.
        """
        if slab.nelements == 0:
            return
        if mode == "torn":
            mm = self._handle()
            rows = slab.row_stop - slab.row_start
            if rows > 1:
                mm[slab.row_start + rows // 2:slab.row_stop, slab.col_slice] = 0
            else:
                cols = slab.col_stop - slab.col_start
                mm[slab.row_slice, slab.col_start + cols // 2:slab.col_stop] = 0
        elif mode == "bitflip":
            # A separate byte-level MAP_SHARED view of the same file is
            # coherent with the typed handle; XOR one byte of the slab's
            # first element.
            if self.order == "F":
                element = slab.col_start * self.shape[0] + slab.row_start
            else:
                element = slab.row_start * self.shape[1] + slab.col_start
            raw = np.memmap(self.path, dtype=np.uint8, mode="r+")
            try:
                raw[element * self.dtype.itemsize] ^= 0xFF
            finally:
                del raw
        else:  # pragma: no cover - injector only emits the two modes above
            raise IOEngineError(f"unknown corruption mode {mode!r}")

    # ------------------------------------------------------------------
    @staticmethod
    def scratch_path(directory: str | os.PathLike, array_name: str, rank: int) -> Path:
        """Conventional LAF path for ``array_name`` on processor ``rank``."""
        unique = uuid.uuid4().hex[:8]
        return Path(directory) / f"laf_{array_name}_p{rank}_{unique}.dat"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LocalArrayFile({self.path.name}, shape={self.shape}, dtype={self.dtype.name}, "
            f"order={self.order!r})"
        )
