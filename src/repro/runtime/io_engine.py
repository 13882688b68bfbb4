"""The accounting I/O engine.

All slab traffic between Local Array Files and In-core Local Arrays goes
through an :class:`IOEngine`, which performs the actual file access (in
``EXECUTE`` mode) and charges the simulated machine for it: one I/O request
per non-empty slab read or written — the convention of the paper's cost
model, valid when the on-disk storage order has been reorganized to match
the slabbing so a slab is one contiguous extent (or when the file system
offers strided/section read calls, as PASSION's runtime did).
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

import numpy as np

from repro.exceptions import IOEngineError, TransientIOError
from repro.machine.cluster import Machine
from repro.runtime.laf import LocalArrayFile
from repro.runtime.slab import Slab

__all__ = ["IOEngine"]


def _requests(slab: Slab) -> int:
    """One request per non-empty slab."""
    return 1 if slab.nelements else 0


class IOEngine:
    """Moves slabs between Local Array Files and memory, charging the machine.

    Parameters
    ----------
    machine:
        The simulated machine to charge.
    perform_io:
        When false (``ESTIMATE`` mode) no file is touched; only costs are
        charged and ``read_slab`` returns ``None``.  Either way every read is
        charged in full to the machine's clock, as in the paper's measured
        configuration (no read hides behind computation).
    injector:
        Optional :class:`~repro.resilience.faults.FaultInjector` consulted
        before each host file access (and after writes, for corruption).
    stats:
        Optional :class:`~repro.resilience.faults.ResilienceStats` recording
        retries.  Defaults to the injector's stats when one is given.
    retries / retry_backoff_s:
        Bounded-retry budget for transient failures of a single file
        operation and the base of the exponential host-side backoff between
        attempts.  Charging is untouched by retries: every logical access is
        charged exactly once, *before* the first attempt — and only after
        the access is known to be one the file accepts: an out-of-bounds
        slab (either mode) or a closed file (``EXECUTE``) is refused first,
        so an error leaves the machine as it was.
    """

    def __init__(
        self,
        machine: Machine,
        perform_io: bool = True,
        *,
        injector=None,
        stats=None,
        retries: int = 4,
        retry_backoff_s: float = 0.001,
    ):
        self.machine = machine
        self.perform_io = bool(perform_io)
        self.injector = injector
        self.stats = stats if stats is not None else (
            injector.stats if injector is not None else None
        )
        self.retries = int(retries)
        self.retry_backoff_s = float(retry_backoff_s)

    # ------------------------------------------------------------------
    # resilient host-side file access
    # ------------------------------------------------------------------
    def _attempt(self, op: Callable, kind: str, laf: LocalArrayFile):
        """Run one host file operation with fault injection and bounded retry.

        Transient failures (injected or real ``OSError``) are retried up to
        ``self.retries`` times with exponential backoff; exhaustion surfaces
        as a plain :class:`IOEngineError`.  Checksum mismatches
        (:class:`~repro.exceptions.SlabCorruptionError`) are *not* retried —
        re-reading corrupt bytes returns the same corrupt bytes; recovery
        belongs to the executor.
        """
        site = laf.label
        failures = 0
        while True:
            try:
                if self.injector is not None:
                    if kind == "read":
                        self.injector.before_read(site)
                    else:
                        self.injector.before_write(site)
                return op()
            except (TransientIOError, OSError) as exc:
                failures += 1
                if failures > self.retries:
                    raise IOEngineError(
                        f"{kind} of local array file {site} still failing "
                        f"after {self.retries} retries: {exc}"
                    ) from exc
                if self.stats is not None:
                    self.stats.retries += 1
                if self.retry_backoff_s:
                    time.sleep(self.retry_backoff_s * (2 ** (failures - 1)))

    def _maybe_corrupt(self, laf: LocalArrayFile, slab: Slab) -> None:
        """After a successful write, let the injector damage the bytes on disk."""
        if self.injector is None or not self.perform_io:
            return
        mode = self.injector.corrupt_write(laf.label)
        if mode is not None:
            laf._inject_corruption(slab, mode)

    @staticmethod
    def _full_slab(laf: LocalArrayFile) -> Slab:
        return Slab(index=0, row_start=0, row_stop=laf.shape[0],
                    col_start=0, col_stop=laf.shape[1])

    def _check(self, laf: LocalArrayFile, slab: Optional[Slab] = None) -> None:
        """Refuse, before anything is charged, an access the file would refuse."""
        if slab is not None:
            laf._check_slab(slab)
        if self.perform_io:
            laf._check_open()

    def check_extent(self, laf: LocalArrayFile, shape: Tuple[int, int]) -> None:
        """Refuse, before a lane charges them, the slabs of a partition of
        ``shape`` that :meth:`read_slab` / :meth:`write_slab` would refuse:
        any slab outside ``laf``'s local array, and (``EXECUTE``) a closed file."""
        self._check(laf, Slab(index=0, row_start=0, row_stop=int(shape[0]),
                              col_start=0, col_stop=int(shape[1])))

    # ------------------------------------------------------------------
    @staticmethod
    def read_step(laf: LocalArrayFile, slab: Slab) -> Tuple[str, int, int]:
        """What one read of ``slab`` charges, as a lane step.

        ``("read", nbytes, nrequests)``; nothing is charged.
        """
        return ("read", slab.nbytes(laf.dtype.itemsize), _requests(slab))

    @staticmethod
    def write_step(laf: LocalArrayFile, slab: Slab) -> Tuple[str, int, int]:
        """What one write of ``slab`` charges, as a lane step; nothing is charged."""
        return ("write", slab.nbytes(laf.dtype.itemsize), _requests(slab))

    def load_slab(self, rank: int, laf: LocalArrayFile, slab: Slab) -> Optional[np.ndarray]:
        """Move ``slab``'s data without charging: the data half of :meth:`read_slab`.

        For a caller that charges the read itself, in a lane
        (:meth:`~repro.machine.cluster.Machine.charge_lane`) or a column block.
        """
        if not self.perform_io:
            return None
        return self._attempt(lambda: laf.read_slab(slab), "read", laf)

    def save_slab(
        self, rank: int, laf: LocalArrayFile, slab: Slab, data: Optional[np.ndarray]
    ) -> None:
        """Move ``data`` into ``slab`` without charging: the data half of
        :meth:`write_slab` — retries, fault injection and the checksum
        manifest included; the caller charges the write in a lane."""
        if not self.perform_io:
            return
        if data is None or np.shape(data) != slab.shape:
            raise IOEngineError(f"write_slab needs data of shape {slab.shape} to perform I/O")
        self._attempt(lambda: laf.write_slab(slab, data), "write", laf)
        self._maybe_corrupt(laf, slab)

    def read_slab(self, rank: int, laf: LocalArrayFile, slab: Slab) -> Optional[np.ndarray]:
        """Read ``slab`` of processor ``rank``'s LAF; charge and return the data."""
        self._check(laf, slab)
        _, nbytes, nrequests = self.read_step(laf, slab)
        self.machine.charge_read(rank, nbytes, nrequests)
        return self.load_slab(rank, laf, slab)

    def write_slab(
        self, rank: int, laf: LocalArrayFile, slab: Slab, data: Optional[np.ndarray]
    ) -> None:
        """Write ``slab`` of processor ``rank``'s LAF; charge the machine."""
        self._check(laf, slab)
        if self.perform_io and (data is None or np.shape(data) != slab.shape):
            # refused before the charge: an error leaves the machine as it was
            raise IOEngineError(f"write_slab needs data of shape {slab.shape} to perform I/O")
        _, nbytes, nrequests = self.write_step(laf, slab)
        self.machine.charge_write(rank, nbytes, nrequests)
        self.save_slab(rank, laf, slab, data)

    def read_full(self, rank: int, laf: LocalArrayFile) -> Optional[np.ndarray]:
        """Read an entire LAF as one request (used by the in-core baseline)."""
        self._check(laf)
        nbytes = laf.nbytes
        self.machine.charge_read(rank, nbytes, 1 if nbytes else 0)
        if not self.perform_io:
            return None
        return self._attempt(laf.read_full, "read", laf)

    def write_full(self, rank: int, laf: LocalArrayFile, data: Optional[np.ndarray]) -> None:
        """Write an entire LAF as one request (used by the in-core baseline)."""
        self._check(laf)
        if self.perform_io and (data is None or np.shape(data) != laf.shape):
            raise IOEngineError(f"write_full needs data of shape {laf.shape} to perform I/O")
        nbytes = laf.nbytes
        self.machine.charge_write(rank, nbytes, 1 if nbytes else 0)
        if not self.perform_io:
            return
        self._attempt(lambda: laf.write_full(data), "write", laf)
        self._maybe_corrupt(laf, self._full_slab(laf))
