"""Local Array Files (LAFs).

The data storage model of the paper stores the out-of-core local array of
each processor in a separate file owned by that processor: its Local Array
File.  The node program explicitly reads slabs from and writes slabs into the
LAF.

Here a LAF is a real file on the host filesystem holding the local array in
either column-major (``'F'``) or row-major (``'C'``) element order.  The
storage order is chosen by the compiler so that the slabs it plans to read
are contiguous on disk — this is the "reorganizing data storage on disks"
part of the paper's optimization.

Access goes through one lazily opened file descriptor per LAF, reused across
accesses.  A slab that is one contiguous extent of the file in its storage
order — whole columns or part of one column of an ``'F'`` file, whole rows or
part of one row of a ``'C'`` file — moves with one positioned request: a
``preadv`` into a fresh array in the file's order, or one ``pwrite``.  That
covers every slab of a file laid out for its slabbing, so the file's pages
stay in the host's page cache, not in the process.  A slab that is not one
extent (today only a whole-program intermediate its producer wrote in the
other orientation) goes through a memory map of the file, opened on the
first such access and kept with the descriptor.  A short transfer raises
:class:`~repro.exceptions.IOEngineError`; no partly filled array is ever
returned.

:meth:`~LocalArrayFile.flush` and :meth:`~LocalArrayFile.close` force
written data to disk (``fsync``, and ``msync`` of an open map); ``delete``
drops the descriptor unsynced, because the file goes with it.  A
:class:`LafHandleCache` bounds how many descriptors are simultaneously open
so runs with hundreds of LAFs do not exhaust them; an evicted descriptor is
synced, closed and transparently reopened on the next access.  None of this
changes what the simulated machine is charged: that is the I/O engine's
business.
"""

from __future__ import annotations

import os
import uuid
from collections import OrderedDict
from pathlib import Path
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.exceptions import IOEngineError, SlabCorruptionError
from repro.resilience.checksums import SlabManifest, slab_checksum
from repro.runtime.slab import Slab

__all__ = ["LafHandleCache", "LocalArrayFile"]

#: rows ``[key[0], key[1])`` x columns ``[key[2], key[3])`` of a local array
SlabKey = Tuple[int, int, int, int]


class LafHandleCache:
    """Bounded LRU registry of the open :class:`LocalArrayFile` descriptors.

    A virtual machine creates one cache and hands it to every LAF it owns;
    whenever a LAF opens or uses its descriptor it is moved to the
    most-recently-used end, and the least-recently-used descriptor is
    released (synced and closed, the file kept intact) once more than
    ``capacity`` are open.
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
        """Record that ``laf``'s descriptor is open and was just used."""
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
        """Forget ``laf`` (its descriptor was released by the file itself)."""
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
        simultaneously open descriptors across many LAFs.
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
        self._fd: Optional[int] = None
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

    def _descriptor(self) -> int:
        """The read/write file descriptor, opened lazily and reused."""
        self._check_open()
        if self._fd is None:
            self._fd = os.open(self.path, os.O_RDWR)
        if self._handle_cache is not None:
            self._handle_cache.touch(self)
        return self._fd

    def _mapping(self) -> np.memmap:
        """The memory map serving slabs that are not one extent of the file.

        Opened with (and released with) the descriptor.  The file's size is
        checked on every use: touching a mapped page past a truncated end
        would kill the process instead of raising.
        """
        size = os.fstat(self._descriptor()).st_size
        if size < self.nbytes:
            raise IOEngineError(
                f"local array file {self.label} ({self.path}) holds {size} of "
                f"its {self.nbytes} bytes"
            )
        if self._mm is None:
            self._mm = np.memmap(
                self.path, dtype=self.dtype, mode="r+", shape=self.shape, order=self.order
            )
        return self._mm

    def _sync(self) -> None:
        """``msync`` the map and ``fsync`` the descriptor, if open."""
        try:
            if self._mm is not None:
                self._mm.flush()
            if self._fd is not None:
                os.fsync(self._fd)
        except OSError as exc:
            raise IOEngineError(
                f"flushing local array file {self.label} ({self.path}) failed: {exc}"
            ) from exc

    def _release_handle(self, unregister: bool = True, sync: bool = True) -> None:
        """Sync (unless ``sync`` is false), then close the descriptor and
        drop the map; the file stays valid.

        A failed sync surfaces as :class:`IOEngineError` naming the array
        and rank — never silently, and never with the stale descriptor kept
        around (it is closed either way).
        """
        try:
            if sync:
                self._sync()
        finally:
            fd, self._fd, self._mm = self._fd, None, None
            if fd is not None:
                os.close(fd)
            if unregister and self._handle_cache is not None:
                self._handle_cache.discard(self)

    def __del__(self) -> None:
        # A LAF dropped without close() or delete() must not leak its
        # descriptor; its written data is already in the page cache.
        fd = getattr(self, "_fd", None)
        if fd is not None:
            os.close(fd)

    @property
    def handle_open(self) -> bool:
        """True while the file descriptor is open."""
        return self._fd is not None

    def flush(self) -> None:
        """Force the data written so far to disk."""
        self._sync()

    def exists(self) -> bool:
        return self.path.exists()

    def close(self) -> None:
        """Sync, close the descriptor and mark the file closed; further access raises.

        Idempotent: the first call does the work (and surfaces any pending
        sync failure as :class:`IOEngineError`); repeat calls are no-ops and
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
        """Close the descriptor and remove the backing file and its checksum sidecar.

        Nothing is written back: the file is unlinked here, so an ``fsync``
        (or saving the sidecar) would be I/O for data nobody can read again.
        Only :meth:`close` and :meth:`flush` write back, and only they can
        raise a sync error.  Idempotent: a missing file is not an error and
        repeat calls are no-ops.
        """
        self._closed = True
        self._release_handle(sync=False)
        manifest, self.manifest = self.manifest, None
        self.path.unlink(missing_ok=True)
        if manifest is not None and manifest.path is not None:
            manifest.path.unlink(missing_ok=True)

    def sync_manifest(self) -> None:
        """Persist the checksum manifest sidecar if it has unsaved entries."""
        if self.manifest is not None and self.manifest.path is not None and self.manifest.dirty:
            self.manifest.save()

    # ------------------------------------------------------------------
    # positioned access
    # ------------------------------------------------------------------
    def _extent(self, key: SlabKey) -> Optional[Tuple[int, int]]:
        """``(byte offset, byte length)`` of ``key`` when it is one contiguous
        extent of the file in its storage order, else ``None``."""
        r0, r1, c0, c1 = key
        rows, cols = self.shape
        if self.order == "F":
            if c1 - c0 > 1 and (r0, r1) != (0, rows):
                return None
            first = c0 * rows + r0
        else:
            if r1 - r0 > 1 and (c0, c1) != (0, cols):
                return None
            first = r0 * cols + c0
        size = self.dtype.itemsize
        return first * size, (r1 - r0) * (c1 - c0) * size

    def _runs(self, key: SlabKey) -> Iterator[Tuple[int, int]]:
        """``(byte offset, byte length)`` of each contiguous run of ``key``:
        one per column of an ``'F'`` file, one per row of a ``'C'`` file."""
        r0, r1, c0, c1 = key
        if self.order == "F":
            lines, (lo, hi), width = range(c0, c1), (r0, r1), self.shape[0]
        else:
            lines, (lo, hi), width = range(r0, r1), (c0, c1), self.shape[1]
        size = self.dtype.itemsize
        for line in lines:
            yield (line * width + lo) * size, (hi - lo) * size

    def _short(self, kind: str, done: int, wanted: int, offset: int) -> IOEngineError:
        return IOEngineError(
            f"short {kind} of local array file {self.label} ({self.path}): "
            f"{done} of {wanted} bytes at offset {offset}"
        )

    def _read(self, key: SlabKey) -> np.ndarray:
        """Rows/columns ``key`` of the file, freshly allocated in the file's order."""
        shape = (key[1] - key[0], key[3] - key[2])
        extent = self._extent(key)
        if extent is None:
            return np.array(self._mapping()[key[0]:key[1], key[2]:key[3]])
        offset, nbytes = extent
        out = np.empty(shape[0] * shape[1], dtype=self.dtype)
        done = os.preadv(self._descriptor(), [out], offset)
        if done != nbytes:
            raise self._short("read", done, nbytes, offset)
        return out.reshape(shape, order=self.order)

    def _write(self, key: SlabKey, data: np.ndarray, full: bool = False) -> None:
        """Store ``data`` (already of the file's dtype) at rows/columns ``key``,
        recording its checksum first (the whole file's when ``full``).

        The checksum and the positioned write take the same flat run of
        ``data`` in the file's order: a view when ``data`` is laid out that
        way already, else its one copy.
        """
        extent = self._extent(key) if data.size else None
        flat = np.ravel(data, order=self.order)
        if self.manifest is not None:
            checksum = slab_checksum(flat, self.order)
            if full:
                self.manifest.record_full(self.shape, checksum)
            else:
                self.manifest.record(key, checksum)
        if not data.size:
            self._check_open()
        elif extent is None:
            self._mapping()[key[0]:key[1], key[2]:key[3]] = data
        else:
            offset, nbytes = extent
            done = os.pwrite(self._descriptor(), flat, offset)
            if done != nbytes:
                raise self._short("write", done, nbytes, offset)

    # ------------------------------------------------------------------
    # whole-array and column access
    # ------------------------------------------------------------------
    def write_full(self, data: np.ndarray) -> None:
        """Write the entire local array to the file with one positioned write
        (no copy when ``data`` is laid out in the file's order)."""
        data = np.asarray(data, dtype=self.dtype)
        if data.shape != self.shape:
            raise IOEngineError(
                f"write_full: data shape {data.shape} does not match LAF shape {self.shape}"
            )
        self._write((0, self.shape[0], 0, self.shape[1]), data, full=True)

    def column_view(self, start: int, stop: int) -> np.ndarray:
        """Local columns ``[start, stop)``, every row, freshly read from the file.

        No checksum check: the caller audits the file first
        (:meth:`verify_checksums`), as
        :meth:`~repro.runtime.vm.OutOfCoreArray.column_reader` does.
        """
        if self.nelements == 0:
            self._check_open()
            return np.zeros((self.shape[0], stop - start), dtype=self.dtype)
        return self._read((0, self.shape[0], start, stop))

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
        key = self._slab_key(slab)
        data = self._read(key)
        if self.manifest is not None and self.manifest.matches(key, data, self.order) is False:
            raise self._corruption_error(key)
        return data

    def write_slab(self, slab: Slab, data: np.ndarray) -> None:
        """Write one slab back to the file (forced to disk by ``flush`` / ``close``)."""
        self._check_slab(slab)
        data = np.asarray(data, dtype=self.dtype)
        if data.shape != slab.shape:
            raise IOEngineError(
                f"write_slab: data shape {data.shape} does not match {slab.describe()}"
            )
        self._write(self._slab_key(slab), data)

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    @staticmethod
    def _slab_key(slab: Slab) -> SlabKey:
        return (int(slab.row_start), int(slab.row_stop),
                int(slab.col_start), int(slab.col_stop))

    def _corruption_error(self, key: SlabKey) -> SlabCorruptionError:
        return SlabCorruptionError(
            f"checksum mismatch reading rows [{key[0]}, {key[1]}) x "
            f"cols [{key[2]}, {key[3]}) of local array file {self.label} ({self.path})",
            array=self.array_name or self.path.name,
            rank=self.rank,
            slab_key=key,
        )

    def verify_checksums(self) -> int:
        """Re-read every recorded slab's extent and verify its checksum.

        Returns the number of slabs verified; raises
        :class:`~repro.exceptions.SlabCorruptionError` on the first mismatch.
        Used at statement boundaries and when validating a checkpoint.
        """
        if self.manifest is None or not self.manifest.verifiable or not self.manifest.entries:
            return 0
        if self.nelements:
            for key, expected in self.manifest.entries.items():
                if slab_checksum(self._read(key), self.order) != expected:
                    raise self._corruption_error(key)
        return len(self.manifest.entries)

    def _inject_corruption(self, slab: Slab, mode: str) -> None:
        """Damage the just-written slab on disk with positioned writes
        (fault injection only).

        ``"torn"`` loses the trailing half of the slab's rows (single-row
        slabs lose trailing columns); ``"bitflip"`` flips every bit of one
        byte inside the slab.  The checksum manifest is deliberately left
        describing the intended data, so the damage is detectable.
        """
        if slab.nelements == 0:
            return
        fd = self._descriptor()
        r0, r1, c0, c1 = self._slab_key(slab)
        if mode == "torn":
            if r1 - r0 > 1:
                lost = (r0 + (r1 - r0) // 2, r1, c0, c1)
            else:
                lost = (r0, r1, c0 + (c1 - c0) // 2, c1)
            for offset, nbytes in self._runs(lost):
                os.pwrite(fd, bytes(nbytes), offset)
        elif mode == "bitflip":
            # one byte of the slab's first element
            offset, _ = next(self._runs((r0, r0 + 1, c0, c0 + 1)))
            byte = os.pread(fd, 1, offset)
            os.pwrite(fd, bytes([byte[0] ^ 0xFF]), offset)
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
