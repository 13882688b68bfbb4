"""The accounting I/O engine.

All slab traffic between Local Array Files and In-core Local Arrays goes
through an :class:`IOEngine`, which performs the actual file access (in
``EXECUTE`` mode) and charges the simulated machine for it.

Two accounting policies are provided:

``IOAccounting.PER_SLAB``
    One I/O request per slab read or written — the convention of the paper's
    cost model, valid when the on-disk storage order has been reorganized to
    match the slabbing so a slab is one contiguous extent (or when the file
    system offers strided/section read calls, as PASSION's runtime did).

``IOAccounting.PER_CHUNK``
    One I/O request per *contiguous file extent* touched — what a naive
    runtime doing one ``read()`` per partial column/row would pay.  Used by
    the ablation experiments to show why storage reorganization matters.
"""

from __future__ import annotations

import enum
import time
from typing import Callable, Optional, Tuple

import numpy as np

from repro.exceptions import IOEngineError, TransientIOError
from repro.machine.cluster import Machine
from repro.runtime.laf import LocalArrayFile
from repro.runtime.slab import Slab

__all__ = ["IOAccounting", "IOEngine"]


class IOAccounting(enum.Enum):
    """How I/O requests are counted for a slab access."""

    PER_SLAB = "per-slab"
    PER_CHUNK = "per-chunk"

    @classmethod
    def from_name(cls, name: "IOAccounting | str") -> "IOAccounting":
        if isinstance(name, IOAccounting):
            return name
        key = str(name).strip().lower()
        for member in cls:
            if member.value == key or member.name.lower() == key:
                return member
        raise IOEngineError(f"unknown I/O accounting policy {name!r}")


class IOEngine:
    """Moves slabs between Local Array Files and memory, charging the machine.

    Parameters
    ----------
    machine:
        The simulated machine to charge.
    accounting:
        Request-counting policy (see :class:`IOAccounting`).
    perform_io:
        When false (``ESTIMATE`` mode) no file is touched; only costs are
        charged and ``read_slab`` returns ``None``.
    prefetch:
        Optional :class:`~repro.runtime.prefetch.PrefetchPolicy`.  When set,
        read charges route through the policy so part of the read time can
        hide behind preceding computation; counters always see the full
        traffic, only the simulated clock benefits.  ``None`` (the default)
        keeps the exact direct-charge path.
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
        charged exactly once, *before* the first attempt.
    """

    def __init__(
        self,
        machine: Machine,
        accounting: IOAccounting | str = IOAccounting.PER_SLAB,
        perform_io: bool = True,
        prefetch=None,
        *,
        injector=None,
        stats=None,
        retries: int = 4,
        retry_backoff_s: float = 0.001,
    ):
        self.machine = machine
        self.accounting = IOAccounting.from_name(accounting)
        self.perform_io = bool(perform_io)
        self.prefetch = prefetch
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

    def _charge_read(self, rank: int, nbytes: int, nrequests: int) -> None:
        if self.prefetch is not None:
            self.prefetch.charge_read(self.machine, rank, nbytes, nrequests)
        else:
            self.machine.charge_read(rank, nbytes, nrequests)

    # ------------------------------------------------------------------
    def _request_count(self, laf: LocalArrayFile, slab: Slab) -> int:
        if slab.nelements == 0:
            return 0
        if self.accounting is IOAccounting.PER_SLAB:
            return 1
        return laf.contiguous_chunks(slab)

    def read_step(self, laf: LocalArrayFile, slab: Slab) -> Tuple[str, int, int]:
        """What one read of ``slab`` charges, as a column-block step.

        ``("read", nbytes, nrequests)`` with the request count still derived
        from :meth:`LocalArrayFile.contiguous_chunks`; nothing is charged.
        """
        return ("read", slab.nbytes(laf.dtype.itemsize), self._request_count(laf, slab))

    def charge_read_slab(self, rank: int, laf: LocalArrayFile, slab: Slab) -> None:
        """Charge the machine as if ``slab`` were read, without moving data.

        The charge half of :meth:`read_slab`: the simulated machine pays the
        full read while the host skips the file access.
        """
        _, nbytes, nrequests = self.read_step(laf, slab)
        self._charge_read(rank, nbytes, nrequests)

    def load_slab(self, rank: int, laf: LocalArrayFile, slab: Slab) -> Optional[np.ndarray]:
        """Move ``slab``'s data without charging: the data half of :meth:`read_slab`.

        For a caller that charges the read itself — the column-slab reduction
        holds each streamed slab in memory after one real read and charges
        that read, with every re-stream, in its column blocks.
        """
        if not self.perform_io:
            return None
        return self._attempt(lambda: laf.read_slab(slab), "read", laf)

    def read_slab(self, rank: int, laf: LocalArrayFile, slab: Slab) -> Optional[np.ndarray]:
        """Read ``slab`` of processor ``rank``'s LAF; charge and return the data."""
        self.charge_read_slab(rank, laf, slab)
        return self.load_slab(rank, laf, slab)

    def write_slab(
        self, rank: int, laf: LocalArrayFile, slab: Slab, data: Optional[np.ndarray]
    ) -> None:
        """Write ``slab`` of processor ``rank``'s LAF; charge the machine."""
        if self.perform_io and (data is None or np.shape(data) != slab.shape):
            # refused before the charge: an error leaves the machine as it was
            raise IOEngineError(f"write_slab needs data of shape {slab.shape} to perform I/O")
        nrequests = self._request_count(laf, slab)
        nbytes = slab.nbytes(laf.dtype.itemsize)
        self.machine.charge_write(rank, nbytes, nrequests)
        if not self.perform_io:
            return
        self._attempt(lambda: laf.write_slab(slab, data), "write", laf)
        self._maybe_corrupt(laf, slab)

    def read_full(self, rank: int, laf: LocalArrayFile) -> Optional[np.ndarray]:
        """Read an entire LAF as one request (used by the in-core baseline)."""
        nbytes = laf.nbytes
        self._charge_read(rank, nbytes, 1 if nbytes else 0)
        if not self.perform_io:
            return None
        return self._attempt(laf.read_full, "read", laf)

    def write_full(self, rank: int, laf: LocalArrayFile, data: Optional[np.ndarray]) -> None:
        """Write an entire LAF as one request (used by the in-core baseline)."""
        if self.perform_io and (data is None or np.shape(data) != laf.shape):
            raise IOEngineError(f"write_full needs data of shape {laf.shape} to perform I/O")
        nbytes = laf.nbytes
        self.machine.charge_write(rank, nbytes, 1 if nbytes else 0)
        if not self.perform_io:
            return
        self._attempt(lambda: laf.write_full(data), "write", laf)
        self._maybe_corrupt(laf, self._full_slab(laf))
