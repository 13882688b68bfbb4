"""The virtual machine: simulated processors + their Local Array Files.

A :class:`VirtualMachine` owns

* a :class:`~repro.machine.cluster.Machine` (cost model, clocks, counters),
* a :class:`~repro.runtime.io_engine.IOEngine` bound to the run's execution
  mode, and
* the out-of-core arrays created for a program run, each realised as one
  Local Array File per processor.

It is the object kernels and the executor talk to; experiment harnesses
create one per configuration point.
"""

from __future__ import annotations

import contextlib
import copy
import os
import shutil
import uuid
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional

import numpy as np

from repro.config import ExecutionMode, RunConfig, default_config
from repro.exceptions import RuntimeExecutionError
from repro.hpf.array_desc import ArrayDescriptor
from repro.machine.cluster import Machine
from repro.machine.parameters import MachineParameters
from repro.resilience.checksums import SlabManifest
from repro.resilience.faults import FaultInjector, ResilienceStats
from repro.resilience.journal import CheckpointJournal
from repro.resilience.reaper import write_owner_file
from repro.runtime.comm import CommBackend, SimulatedComm
from repro.runtime.io_engine import IOEngine
from repro.runtime.laf import LafHandleCache, LocalArrayFile
from repro.runtime.ocla import OutOfCoreLocalArray

__all__ = ["OutOfCoreArray", "VirtualMachine"]


class OutOfCoreArray:
    """A distributed out-of-core array: one OCLA (and LAF) per processor."""

    def __init__(self, descriptor: ArrayDescriptor, locals_: Dict[int, OutOfCoreLocalArray]):
        self.descriptor = descriptor
        self.locals = locals_

    @property
    def name(self) -> str:
        return self.descriptor.name

    @property
    def nprocs(self) -> int:
        return self.descriptor.nprocs

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(self.descriptor.dtype)

    def local(self, rank: int) -> OutOfCoreLocalArray:
        try:
            return self.locals[rank]
        except KeyError as exc:
            raise RuntimeExecutionError(
                f"array {self.name!r} has no local part on rank {rank}"
            ) from exc

    def __getitem__(self, rank: int) -> OutOfCoreLocalArray:
        return self.local(rank)

    def __iter__(self):
        return iter(self.locals.values())

    def verify_checksums(self) -> None:
        """Audit every local's file against its checksum manifest.

        Raises :class:`~repro.exceptions.SlabCorruptionError` on the first
        mismatch (:meth:`LocalArrayFile.verify_checksums`); uncharged.
        """
        for ocla in self:
            ocla.laf.verify_checksums()

    def column_reader(self) -> Callable[[slice], np.ndarray]:
        """Audit the owners' files, then read global column panels from them.

        The one uncharged host read of a stored array: verification reads
        each result panel here instead of gathering it, and
        :meth:`VirtualMachine.to_dense` is one panel of every column.  Every
        local's checksum manifest is verified first, once
        (:meth:`verify_checksums`), so a corrupt file raises before any panel
        is read.  The returned function takes a step-1 ``slice`` of global
        columns and returns them, freshly allocated in the array's dtype:
        each owner contributes the contiguous run of its local columns that
        falls in the panel (:meth:`LocalArrayFile.column_view`, a fresh
        array in its file's order), placed with the owned slices of
        :meth:`ArrayDescriptor.local_slices` — or with their index arrays
        for ``CYCLIC(k)``.  An owner holding the whole panel returns its
        read as the panel.
        """
        self.verify_checksums()
        descriptor = self.descriptor
        rows, cols = descriptor.shape
        owners = []
        for rank, ocla in self.locals.items():
            owned_rows, owned_cols = descriptor.local_slices(rank)
            owners.append((ocla.laf, owned_rows, owned_cols, np.arange(cols)[owned_cols]))

        def read(panel: slice) -> np.ndarray:
            start, stop, _ = panel.indices(cols)
            out = np.empty((rows, stop - start), dtype=self.dtype)
            for laf, owned_rows, owned_cols, columns in owners:
                first, last = (int(i) for i in np.searchsorted(columns, (start, stop)))
                if first == last:
                    continue
                block = laf.column_view(first, last)
                if block.shape == out.shape:
                    return block
                if isinstance(owned_cols, slice):
                    # the owned columns in the panel are strided: one view
                    where = slice(columns[first] - start, columns[last - 1] - start + 1,
                                  owned_cols.step)
                    if isinstance(owned_rows, slice):
                        out[owned_rows, where] = block
                        continue
                    where = np.arange(stop - start)[where]
                else:
                    where = columns[first:last] - start
                out[np.ix_(np.arange(rows)[owned_rows], where)] = block
            return out

        return read

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OutOfCoreArray({self.descriptor.describe()})"


class VirtualMachine:
    """Simulated machine plus the on-disk state of one program run."""

    def __init__(
        self,
        nprocs: int,
        params: MachineParameters | str | None = None,
        config: Optional[RunConfig] = None,
        max_open_handles: int = 128,
        work_dir: str | os.PathLike | None = None,
        rank: Optional[int] = None,
        comm: Optional[CommBackend] = None,
    ):
        self.config = config or default_config()
        self.machine = Machine(nprocs, params)
        self.perform_io = self.config.mode is ExecutionMode.EXECUTE
        # SPMD identity: a simulated VM owns every rank (rank=None); a rank
        # worker of the distributed backend owns exactly one.  Engines loop
        # their per-rank work over ``vm.ranks`` and reach collectives through
        # ``vm.comm``, so one code path serves both styles.
        if rank is not None and not 0 <= rank < self.machine.nprocs:
            raise RuntimeExecutionError(
                f"rank {rank} outside machine of {self.machine.nprocs} processors"
            )
        self.rank: Optional[int] = rank
        self.ranks: tuple = tuple(range(self.machine.nprocs)) if rank is None else (rank,)
        self.comm: CommBackend = comm if comm is not None else SimulatedComm()
        self.comm.bind(self.machine)
        # Resilience: host-side counters, and (EXECUTE only) the optional
        # seeded fault injector.  Neither touches any charged statistic.
        self.resilience = ResilienceStats()
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(self.config.fault_policy, self.resilience)
            if self.perform_io and self.config.fault_policy is not None
            else None
        )
        self.engine = IOEngine(
            self.machine,
            perform_io=self.perform_io,
            injector=self.fault_injector,
            stats=self.resilience,
            retries=self.config.io_retries,
            retry_backoff_s=self.config.io_retry_backoff_s,
        )
        self.arrays: Dict[str, OutOfCoreArray] = {}
        # Opt-in switch for cross-statement array reuse (see array_reuse()):
        # off by default so independent runs on one VM keep the historical
        # duplicate-array guard instead of silently reading stale LAF data.
        self.allow_array_reuse = False
        # Bounds how many LAF file descriptors stay open at once so runs
        # with hundreds of LAFs cannot exhaust them.
        self.handle_cache = LafHandleCache(capacity=max_open_handles)
        self._scratch: Optional[Path] = None
        self.journal: Optional[CheckpointJournal] = None
        if self.perform_io:
            if work_dir is not None:
                # An explicit working directory: checkpoint/resume reopens
                # the scratch dir (and journal) of an earlier, killed run.
                self._scratch = Path(work_dir)
            else:
                base = self.config.ensure_scratch_dir()
                self._scratch = Path(base) / f"vm_{uuid.uuid4().hex[:12]}"
            self._scratch.mkdir(parents=True, exist_ok=True)
            # Liveness marker for the scratch reaper: a vm_* directory whose
            # owning pid is still alive is never reaped, however stale its
            # content mtimes look (long computations write nothing for hours).
            write_owner_file(self._scratch)
            self.journal = CheckpointJournal(self._scratch / "journal.json")

    # ------------------------------------------------------------------
    @property
    def nprocs(self) -> int:
        return self.machine.nprocs

    @property
    def work_dir(self) -> Optional[Path]:
        """The scratch directory holding this VM's LAFs and journal."""
        return self._scratch

    @property
    def memory_per_node(self) -> int:
        return self.machine.memory_per_node

    # ------------------------------------------------------------------
    # array management
    # ------------------------------------------------------------------
    def create_array(
        self,
        descriptor: ArrayDescriptor,
        initial: Optional[np.ndarray] = None,
        storage_order: str = "F",
    ) -> OutOfCoreArray:
        """Create the Local Array Files of a distributed out-of-core array.

        Parameters
        ----------
        descriptor:
            The array's HPF descriptor (shape, alignment, distribution).
        initial:
            Optional global data used to initialise the LAFs: a dense array
            or an :class:`~repro.runtime.operands.Operand`, each owned rank's
            block written by :meth:`write_initial`.  Required for input
            arrays in ``EXECUTE`` mode, ignored in ``ESTIMATE`` mode.
        storage_order:
            On-disk element order of every LAF (``'F'`` or ``'C'``); the
            compiler picks this to match the slabbing it selected.
        """
        if descriptor.name in self.arrays:
            raise RuntimeExecutionError(f"array {descriptor.name!r} already exists in this VM")
        if descriptor.ndim != 2:
            raise RuntimeExecutionError(
                f"the out-of-core runtime stores two-dimensional arrays; "
                f"{descriptor.name!r} has {descriptor.ndim} dimensions"
            )
        locals_: Dict[int, OutOfCoreLocalArray] = {}
        # A rank worker creates, writes and charges only its own local part;
        # the block of a rank is the same whoever writes it, so a worker's
        # LAF holds what the simulator's does.
        owned = (
            tuple(range(descriptor.nprocs)) if self.rank is None else (self.rank,)
        )
        for rank in owned:
            local_shape = descriptor.local_shape(rank)
            if self.perform_io:
                path = LocalArrayFile.scratch_path(self._scratch, descriptor.name, rank)
                manifest = (
                    SlabManifest(Path(str(path) + ".sums.json"))
                    if self.config.checksums
                    else None
                )
                laf = LocalArrayFile(
                    path,
                    local_shape,
                    descriptor.dtype,
                    order=storage_order,
                    handle_cache=self.handle_cache,
                    array_name=descriptor.name,
                    rank=rank,
                    manifest=manifest,
                )
            else:
                laf = LocalArrayFile(
                    Path("/nonexistent") / f"{descriptor.name}_{rank}.dat",
                    local_shape,
                    descriptor.dtype,
                    order=storage_order,
                    create=False,
                )
            locals_[rank] = OutOfCoreLocalArray(descriptor, rank, laf, self.engine)
        array = OutOfCoreArray(descriptor, locals_)
        if self.perform_io and initial is not None:
            for rank in owned:
                self.write_initial(array, rank, initial)
        self.arrays[descriptor.name] = array
        return array

    @staticmethod
    def write_initial(array: OutOfCoreArray, rank: int, initial) -> None:
        """Write ``rank``'s block of ``initial`` (dense, or an operand that
        draws only that block) to its Local Array File, checksums included.

        The block is cut or drawn straight into the file's storage order, so
        the file's one positioned write and its checksum take it as it is.
        The one way input data reaches a LAF: :meth:`create_array` calls it
        per owned rank, and recovery re-writes a corrupted rank's block.
        """
        laf = array.local(rank).laf
        laf.write_full(array.descriptor.local_part(initial, rank, laf.order))

    @contextlib.contextmanager
    def array_reuse(self) -> Iterator["VirtualMachine"]:
        """Allow :meth:`ensure_array` to resolve to existing arrays.

        Scoped opt-in used by the whole-program executor: inside the context
        a statement consuming an intermediate finds the Local Array Files its
        producer wrote and reads them directly.  Outside it, ``ensure_array``
        behaves exactly like :meth:`create_array` — a duplicate name raises —
        so independent runs on one VM cannot silently read stale data.
        """
        previous = self.allow_array_reuse
        self.allow_array_reuse = True
        try:
            yield self
        finally:
            self.allow_array_reuse = previous

    def ensure_array(
        self,
        descriptor: ArrayDescriptor,
        initial: Optional[np.ndarray] = None,
        storage_order: str = "F",
    ) -> OutOfCoreArray:
        """Create the array, or — inside :meth:`array_reuse` — return the existing one.

        The reuse path of whole-program execution: a statement consuming an
        intermediate finds the Local Array Files its producer wrote and reads
        them directly (``initial`` and ``storage_order`` are ignored then — the
        data and on-disk layout are whatever the producer left behind), so the
        intermediate is never scattered or regenerated.  A shape or dtype
        mismatch with the existing array is an error, as is an existing array
        outside an :meth:`array_reuse` scope (matching ``create_array``).
        """
        existing = self.arrays.get(descriptor.name)
        if existing is None or not self.allow_array_reuse:
            return self.create_array(descriptor, initial=initial, storage_order=storage_order)
        held = existing.descriptor
        if held.shape != descriptor.shape or str(held.dtype) != str(descriptor.dtype):
            raise RuntimeExecutionError(
                f"array {descriptor.name!r} already exists with shape {held.shape} "
                f"dtype {held.dtype}, which does not match the requested shape "
                f"{descriptor.shape} dtype {descriptor.dtype}"
            )
        return existing

    def get_array(self, name: str) -> OutOfCoreArray:
        try:
            return self.arrays[name]
        except KeyError as exc:
            raise RuntimeExecutionError(f"unknown out-of-core array {name!r}") from exc

    def to_dense(self, array: OutOfCoreArray | str) -> np.ndarray:
        """Gather an out-of-core array into one dense global array.

        Only for a caller who asks for the data: uncharged, and nothing in
        the runtime calls it — verification reads the stored result panel by
        panel (:meth:`OutOfCoreArray.column_reader`, of which this is one
        panel of every column, checksums audited first).
        """
        if isinstance(array, str):
            array = self.get_array(array)
        if not self.perform_io:
            raise RuntimeExecutionError("to_dense is only available in EXECUTE mode")
        if self.rank is not None:
            raise RuntimeExecutionError(
                "to_dense needs every rank's local part; a rank worker owns "
                "only its own — the distributed backend reads results in "
                "the parent process instead"
            )
        return array.column_reader()(slice(0, array.descriptor.shape[1]))

    # ------------------------------------------------------------------
    # charge snapshot/restore (charge-neutral fault recovery)
    # ------------------------------------------------------------------
    def snapshot_charges(self) -> dict:
        """Deep-copy every mutable charged quantity of the simulated machine.

        Recovery code brackets a re-execution with
        ``snap = vm.snapshot_charges()`` … ``vm.restore_charges(snap)`` so a
        regenerated statement charges the machine exactly once — faulted runs
        stay bit-identical to clean runs in every charged statistic.
        """
        return copy.deepcopy({
            "processors": self.machine.processors,
            "disks": self.machine.disks,
            "network": self.machine.network,
            "clocks": self.machine.clocks,
            "metrics": self.machine.metrics,
        })

    def restore_charges(self, snapshot: dict) -> None:
        """Reset the simulated machine's charges to a snapshot (reusable)."""
        state = copy.deepcopy(snapshot)
        self.machine.processors = state["processors"]
        self.machine.disks = state["disks"]
        self.machine.network = state["network"]
        self.machine.clocks = state["clocks"]
        self.machine.metrics = state["metrics"]

    # ------------------------------------------------------------------
    # reporting and lifecycle
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Simulated wall-clock seconds of the run so far."""
        return self.machine.elapsed()

    def time_breakdown(self) -> Dict[str, float]:
        return self.machine.time_breakdown()

    def io_statistics(self) -> Dict[str, float]:
        return self.machine.io_statistics()

    def reset_costs(self) -> None:
        """Clear clocks and counters but keep arrays and files."""
        self.machine.reset()

    def cleanup(self) -> None:
        """Delete all Local Array Files (unless the config asks to keep them)."""
        for array in self.arrays.values():
            for ocla in array:
                if self.perform_io and not self.config.keep_files:
                    ocla.laf.delete()
                else:
                    ocla.laf.close()
        self.arrays.clear()
        if (
            self.perform_io
            and not self.config.keep_files
            and self._scratch is not None
            and self._scratch.exists()
        ):
            shutil.rmtree(self._scratch, ignore_errors=True)

    def __enter__(self) -> "VirtualMachine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VirtualMachine(nprocs={self.nprocs}, mode={self.config.mode.value})"
