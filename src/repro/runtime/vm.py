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
from typing import Dict, Iterator, Optional

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
from repro.runtime.icla import InCoreLocalArray
from repro.runtime.io_engine import IOAccounting, IOEngine
from repro.runtime.laf import LafHandleCache, LocalArrayFile
from repro.runtime.ocla import OutOfCoreLocalArray
from repro.runtime.prefetch import OverlapPrefetch, PrefetchPolicy

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OutOfCoreArray({self.descriptor.describe()})"


class VirtualMachine:
    """Simulated machine plus the on-disk state of one program run."""

    def __init__(
        self,
        nprocs: int,
        params: MachineParameters | str | None = None,
        config: Optional[RunConfig] = None,
        accounting: IOAccounting | str = IOAccounting.PER_SLAB,
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
        # Prefetch policy: None keeps the exact direct-charge path (the
        # paper's measured configuration); "overlap" hides slab reads behind
        # preceding computation without touching any I/O counter.
        self.prefetch_policy: Optional[PrefetchPolicy] = (
            OverlapPrefetch(efficiency=self.config.prefetch_efficiency)
            if getattr(self.config, "prefetch", "none") == "overlap"
            else None
        )
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
            accounting=accounting,
            perform_io=self.perform_io,
            prefetch=self.prefetch_policy,
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
        # Bounds how many persistent LAF memmap handles stay open at once so
        # runs with hundreds of LAFs cannot exhaust file descriptors.
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
        icla_elements: Optional[int] = None,
        charge_initial_write: bool = False,
    ) -> OutOfCoreArray:
        """Create the Local Array Files of a distributed out-of-core array.

        Parameters
        ----------
        descriptor:
            The array's HPF descriptor (shape, alignment, distribution).
        initial:
            Optional dense global array used to initialise the LAFs (scattered
            according to the distribution).  Required for input arrays in
            ``EXECUTE`` mode, ignored in ``ESTIMATE`` mode.
        storage_order:
            On-disk element order of every LAF (``'F'`` or ``'C'``); the
            compiler picks this to match the slabbing it selected.
        icla_elements:
            Capacity of the reuse buffer attached to each OCLA (optional).
        charge_initial_write:
            When true the initial scatter is charged to the machine (used when
            an experiment wants to include the initial data staging cost).
        """
        if descriptor.name in self.arrays:
            raise RuntimeExecutionError(f"array {descriptor.name!r} already exists in this VM")
        if descriptor.ndim != 2:
            raise RuntimeExecutionError(
                f"the out-of-core runtime stores two-dimensional arrays; "
                f"{descriptor.name!r} has {descriptor.ndim} dimensions"
            )
        locals_: Dict[int, OutOfCoreLocalArray] = {}
        # A rank worker creates, scatters and charges only its own local
        # part; scatter is deterministic, so every worker slices the same
        # dense data identically to the simulator's scatter.
        owned = (
            tuple(range(descriptor.nprocs)) if self.rank is None else (self.rank,)
        )
        scattered: Optional[Dict[int, np.ndarray]] = None
        if self.perform_io and initial is not None:
            scattered = descriptor.scatter(initial, owned)
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
                if scattered is not None:
                    laf.write_full(scattered[rank])
            else:
                laf = LocalArrayFile(
                    Path("/nonexistent") / f"{descriptor.name}_{rank}.dat",
                    local_shape,
                    descriptor.dtype,
                    order=storage_order,
                    create=False,
                )
            icla = (
                InCoreLocalArray(icla_elements, descriptor.dtype)
                if icla_elements is not None
                else None
            )
            locals_[rank] = OutOfCoreLocalArray(descriptor, rank, laf, self.engine, icla)
            if charge_initial_write:
                self.machine.charge_write(rank, descriptor.local_nbytes(rank), 1)
        array = OutOfCoreArray(descriptor, locals_)
        self.arrays[descriptor.name] = array
        return array

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
        icla_elements: Optional[int] = None,
        charge_initial_write: bool = False,
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
            return self.create_array(
                descriptor,
                initial=initial,
                storage_order=storage_order,
                icla_elements=icla_elements,
                charge_initial_write=charge_initial_write,
            )
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
        """Gather an out-of-core array back into a dense global array.

        Used for verification only; not charged to the machine.
        """
        if isinstance(array, str):
            array = self.get_array(array)
        if not self.perform_io:
            raise RuntimeExecutionError("to_dense is only available in EXECUTE mode")
        if self.rank is not None:
            raise RuntimeExecutionError(
                "to_dense needs every rank's local part; a rank worker owns "
                "only its own — the distributed backend gathers results in "
                "the parent process instead"
            )
        locals_ = {rank: ocla.laf.read_full() for rank, ocla in array.locals.items()}
        return array.descriptor.gather(locals_)

    # ------------------------------------------------------------------
    # charging helpers
    # ------------------------------------------------------------------
    def charge_compute(self, rank: int, flops: float) -> float:
        """Charge ``rank`` for ``flops`` and feed the prefetch overlap window.

        Identical to ``machine.charge_compute`` when no prefetch policy is
        active; with ``prefetch="overlap"`` the computed seconds become the
        window subsequent slab reads may hide behind.
        """
        seconds = self.machine.charge_compute(rank, flops)
        if self.prefetch_policy is not None:
            self.prefetch_policy.begin_compute(rank, seconds)
        return seconds

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
        state = {
            "processors": self.machine.processors,
            "disks": self.machine.disks,
            "network": self.machine.network,
            "clocks": self.machine.clocks,
            "metrics": self.machine.metrics,
        }
        if self.prefetch_policy is not None:
            state["prefetch_available"] = self.prefetch_policy._available
        return copy.deepcopy(state)

    def restore_charges(self, snapshot: dict) -> None:
        """Reset the simulated machine's charges to a snapshot (reusable)."""
        state = copy.deepcopy(snapshot)
        self.machine.processors = state["processors"]
        self.machine.disks = state["disks"]
        self.machine.network = state["network"]
        self.machine.clocks = state["clocks"]
        self.machine.metrics = state["metrics"]
        if self.prefetch_policy is not None:
            self.prefetch_policy._available = state.get("prefetch_available", {})

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
