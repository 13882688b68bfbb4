"""The Session facade: one compile → run → sweep surface for every kernel.

A :class:`Session` owns the pieces every evaluation needs — the machine
parameters, the :class:`~repro.config.RunConfig`, an LRU cache of compiled
workloads and the thread-pool sweep driver — so callers write::

    from repro import Session, WorkloadPoint

    session = Session()
    record = session.run(WorkloadPoint("gaxpy", n=128, nprocs=4,
                                      version="row", slab_ratio=0.25))

and every registered workload (gaxpy, transpose, elementwise, mini-HPF
source programs) goes through the same machinery: the same compile cache,
the same :class:`~repro.api.RunRecord` result schema, and the same parallel
sweep driver.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import multiprocessing
import shutil
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.api.records import RunRecord
from repro.api.workload import CompiledWorkload, WorkloadPoint, get_workload
from repro.config import ExecutionMode, RunConfig
from repro.exceptions import WorkloadError
from repro.machine.parameters import MachineParameters, touchstone_delta
from repro.planner.plan_cache import PlanCache, use_plan_cache
from repro.planner.search import normalize_optimizer
from repro.resilience.reaper import DEFAULT_MAX_AGE_S, reap_scratch

__all__ = ["Session", "SweepResult"]

PointLike = Union[WorkloadPoint, CompiledWorkload]


class SweepResult(List[RunRecord]):
    """The records of one sweep, plus a ``summary`` of what the sweep cost.

    A plain ``list`` subclass, so every existing consumer of
    :meth:`Session.sweep` keeps working; ``summary`` adds the per-sweep
    compile-cache and planner-cache hit/miss deltas and the optimizer mix of
    the evaluated points.
    """

    def __init__(self, records: Iterable[RunRecord], summary: Dict[str, object]):
        super().__init__(records)
        self.summary = dict(summary)


class Session:
    """Owns machine parameters, run configuration, compile cache and sweeps.

    Parameters
    ----------
    params:
        Machine model parameters (default: the Touchstone-Delta-like model).
    config:
        Base :class:`~repro.config.RunConfig`; its ``mode`` is the default
        for :meth:`run` and :meth:`sweep`, its ``seed`` drives workload input
        generation, its ``scratch_dir`` hosts the Local Array Files, and its
        ``prefetch`` policy (``"none"`` | ``"overlap"``) flows into every
        virtual machine the session creates, so the executor's slab reads
        can hide behind computation when overlap prefetching is enabled
        (in slab-driven runs — every ``EXECUTE``-mode evaluation and the
        elementwise/transpose ``ESTIMATE`` path; the bulk analytic
        reduction estimate has no slab loop and reports unhidden time).
    compile_cache_size:
        Capacity of the per-session LRU cache of :class:`CompiledWorkload`
        objects (keyed on the full :class:`WorkloadPoint`).  Cached programs
        are shared between runs and threads — they are frozen and must not
        be mutated.
    optimize:
        The session's default plan optimizer for memory-budget compilations
        (``"none"`` | ``"greedy"`` | ``"beam"`` | ``"exhaustive"``; default
        ``"greedy"``).  A point's own ``optimize`` field, or the per-call
        override of :meth:`compile` / :meth:`run` / :meth:`sweep`, wins over
        this default.  The effective choice is folded into the point before
        it keys the compile cache, so different budget-allocation policies
        never share a cached compilation.
    plan_cache_dir:
        Directory of the persistent plan cache.  ``None`` (the default)
        keeps search winners in memory only; with a directory, winners are
        written to disk and replayed by any later Session pointed at it.
    plan_cache:
        An existing :class:`~repro.planner.plan_cache.PlanCache` instance to
        use *instead of* constructing one from ``plan_cache_dir``.  Lets
        several sessions (e.g. the simulated and the ``"processes"``
        sessions of one job service) share one plan store, so a plan
        searched on behalf of one tenant is replayed for every other.
    check:
        The session's default static-verification mode (``"off"`` |
        ``"warn"`` | ``"error"``; default ``"warn"``).  Every compilation is
        walked by the static plan verifier (:mod:`repro.check`) *after* the
        compile cache is consulted — the frozen
        :class:`~repro.check.report.CheckReport` is attached to the
        :class:`CompiledWorkload` (and its compiled program) without
        touching any cache key.  ``"error"`` raises
        :class:`~repro.exceptions.PlanVerificationError` on a failing plan,
        ``"warn"`` emits a warning, ``"off"`` skips verification entirely.
        The per-call ``check=`` of :meth:`compile` / :meth:`run` overrides
        this default.
    reap_max_age_s:
        On construction the session best-effort reaps orphaned ``vm_*``
        scratch directories (left by killed processes) older than this many
        seconds from its scratch dir.  ``None`` disables startup reaping —
        use it when another process may be resumed from that scratch later.
    backend:
        How ``EXECUTE``-mode evaluations run.  ``"simulated"`` (the default)
        drives every rank inside the calling process, exactly as before.
        ``"processes"`` routes each :meth:`run` through
        :func:`repro.runtime.distributed.execute_distributed` — one OS
        process per rank, with collectives really moving bytes between the
        workers — and :meth:`sweep` with ``workers > 1`` through a process
        pool.  Charged statistics are bit-identical between the two
        backends (enforced by ``benchmarks/bench_mp.py``).  ``ESTIMATE``
        mode is analytic and always runs in-process regardless of backend.
    start_method:
        The :mod:`multiprocessing` start method for the ``"processes"``
        backend (``"fork"`` | ``"spawn"`` | ``"forkserver"``).  ``None``
        picks ``fork`` where available, else ``spawn``.
    """

    def __init__(
        self,
        params: Optional[MachineParameters] = None,
        config: Optional[RunConfig] = None,
        *,
        compile_cache_size: int = 128,
        optimize: str = "greedy",
        plan_cache_dir: Optional[Path | str] = None,
        plan_cache: Optional[PlanCache] = None,
        check: str = "warn",
        reap_max_age_s: Optional[float] = DEFAULT_MAX_AGE_S,
        backend: str = "simulated",
        start_method: Optional[str] = None,
    ):
        if compile_cache_size < 1:
            raise WorkloadError("compile_cache_size must be at least 1")
        if check not in ("off", "warn", "error"):
            raise WorkloadError(
                f"check must be 'off', 'warn' or 'error', got {check!r}"
            )
        if backend not in ("simulated", "processes"):
            raise WorkloadError(
                f"backend must be 'simulated' or 'processes', got {backend!r}"
            )
        if start_method is not None:
            available = multiprocessing.get_all_start_methods()
            if start_method not in available:
                raise WorkloadError(
                    f"start_method must be one of {available}, got {start_method!r}"
                )
        self.backend = backend
        self.start_method = start_method
        self.params = params or touchstone_delta()
        self.config = config or RunConfig()
        self.optimize = normalize_optimizer(optimize)
        self.check = check
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache(plan_cache_dir)
        self._cache: "collections.OrderedDict[WorkloadPoint, CompiledWorkload]" = (
            collections.OrderedDict()
        )
        self._cache_capacity = compile_cache_size
        self._cache_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._closed = False
        # Scratch directories of the VMs this session created that may
        # outlive their run (keep_files=True, or a crashed executor);
        # close() reclaims whatever still exists.
        self._scratch_dirs: Set[Path] = set()
        self._scratch_lock = threading.Lock()
        if reap_max_age_s is not None:
            try:
                reap_scratch(self.config.scratch_dir, reap_max_age_s)
            except (OSError, ValueError):  # startup reaping is best-effort
                pass

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def compile(
        self,
        point: Optional[WorkloadPoint] = None,
        *,
        source: Optional[str] = None,
        optimize: Optional[str] = None,
        check: Optional[str] = None,
        **point_kwargs,
    ) -> CompiledWorkload:
        """Compile a workload point (LRU-cached on the full point).

        Three call shapes are accepted::

            session.compile(point)                       # an explicit point
            session.compile(source=hpf_text, slab_ratio=0.25)   # HPF source
            session.compile(workload="gaxpy", n=64, nprocs=4,
                            version="row", slab_ratio=0.5)      # fields

        ``source=...`` builds an ``"hpf"`` point carrying the program text;
        the compiled program's own sizes fill in ``n`` and ``nprocs``.

        ``optimize`` overrides the plan-optimizer choice for this call; the
        resolution order is call override → the point's ``optimize`` field →
        the session default.  The effective choice is written into the point
        before it keys the compile cache.

        ``check`` overrides the session's static-verification mode for this
        call (``"off"`` | ``"warn"`` | ``"error"``).  Verification runs
        *after* the compile cache — the report is attached to the returned
        (possibly cached) object with :func:`dataclasses.replace`, so cache
        keys never depend on the check mode.
        """
        self._ensure_open()
        if point is not None and (source is not None or point_kwargs):
            raise WorkloadError("pass either a WorkloadPoint or keyword fields, not both")
        if point is None:
            if source is not None:
                options = dict(point_kwargs.pop("options", {}) or {})
                options["source"] = source
                point = WorkloadPoint(workload="hpf", options=options, **point_kwargs)
            else:
                point = WorkloadPoint(**point_kwargs)
        point = self._resolve_optimize(point, optimize)
        check_mode = self._resolve_check(check)

        with self._cache_lock:
            cached = self._cache.get(point)
            if cached is not None:
                self._cache.move_to_end(point)
                self._hits += 1
            else:
                self._misses += 1
        if cached is not None:
            return self._verify(cached, check_mode, cache_point=point)

        workload = get_workload(point.workload)
        workload.validate(point)
        with use_plan_cache(self.plan_cache):
            compiled = workload.compile(point, self.params)
        compiled = self._verify(compiled, check_mode, cache_point=None)

        with self._cache_lock:
            self._cache[point] = compiled
            self._cache.move_to_end(point)
            while len(self._cache) > self._cache_capacity:
                self._cache.popitem(last=False)
        return compiled

    def _resolve_check(self, override: Optional[str]) -> str:
        mode = self.check if override is None else override
        if mode not in ("off", "warn", "error"):
            raise WorkloadError(
                f"check must be 'off', 'warn' or 'error', got {mode!r}"
            )
        return mode

    def _verify(
        self,
        compiled: CompiledWorkload,
        check: str,
        *,
        cache_point: Optional[WorkloadPoint],
    ) -> CompiledWorkload:
        """Run the static plan verifier and attach its report to ``compiled``.

        Caching is transparent: the walk runs once per compiled plan, the
        replaced (report-carrying) instance is written back into the session
        cache slot for ``cache_point``, and a plan already carrying a report
        is returned as-is.  ``"error"`` raises on a failing plan, ``"warn"``
        warns — in both cases the report stays attached for inspection.
        """
        if check == "off" or compiled.program is None:
            return compiled
        if compiled.check is None:
            from repro.check import check_compiled

            report = check_compiled(compiled.program)
            program = dataclasses.replace(compiled.program, check=report)
            compiled = dataclasses.replace(compiled, program=program, check=report)
            if cache_point is not None:
                with self._cache_lock:
                    if cache_point in self._cache:
                        self._cache[cache_point] = compiled
        report = compiled.check
        if not report.ok:
            if check == "error":
                from repro.exceptions import PlanVerificationError

                raise PlanVerificationError(report.describe(), report=report)
            import warnings

            warnings.warn(report.describe(), stacklevel=3)
        return compiled

    def _resolve_optimize(
        self, point: WorkloadPoint, override: Optional[str]
    ) -> WorkloadPoint:
        """Fold the effective optimizer choice into the point (cache key)."""
        effective = normalize_optimizer(
            override if override is not None else (point.optimize or self.optimize)
        )
        if point.optimize == effective:
            return point
        return dataclasses.replace(point, optimize=effective)

    def cache_info(self) -> Dict[str, int]:
        planner = self.plan_cache.stats()
        with self._cache_lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._cache),
                "capacity": self._cache_capacity,
                "planner_hits": planner["hits"],
                "planner_misses": planner["misses"],
                "planner_stores": planner["stores"],
                "planner_size": planner["size"],
                "planner_persistent": planner["persistent"],
            }

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()

    # ------------------------------------------------------------------
    # single-point evaluation
    # ------------------------------------------------------------------
    def run(
        self,
        point: PointLike,
        mode: Optional[ExecutionMode | str] = None,
        verify: Optional[bool] = None,
        optimize: Optional[str] = None,
        resume: Optional[Path | str] = None,
        check: Optional[str] = None,
        scratch_dir: Optional[Path | str] = None,
    ) -> RunRecord:
        """Evaluate one point (or pre-compiled workload) and return its record.

        ``mode`` defaults to the session config's mode; ``verify`` defaults
        to the config's ``verify`` flag and only matters in ``EXECUTE`` mode.
        ``optimize`` overrides the plan-optimizer choice for this evaluation
        (ignored for pre-compiled workloads, whose plan is already fixed).
        ``check`` overrides the session's static-verification mode for this
        evaluation's compilation (also ignored for pre-compiled workloads).

        ``scratch_dir`` overrides the config's scratch root for this one
        evaluation: the run's ``vm_*`` directory is created under it instead.
        The job service gives every job its own scratch directory this way,
        so per-job disk usage can be measured (and reclaimed) in isolation.
        Charged statistics are independent of where scratch lives.

        ``resume`` points at the scratch directory (``vm_*``) of an earlier
        killed run of the *same* point.  The virtual machine reopens that
        directory, re-validates the checkpoint journal and its Local Array
        Files against their checksum manifests, and re-executes only the
        statements the journal does not record as completed — the record's
        ``statements`` entries carry ``{"skipped": 1.0}`` for the rest.
        Only meaningful for ``EXECUTE``-mode multi-statement programs; a
        stale or mismatched checkpoint is discarded and the program simply
        runs from the start.

        On a ``backend="processes"`` session, ``EXECUTE``-mode evaluations
        run one worker process per rank (``ESTIMATE`` stays analytic and
        in-process).  ``resume=`` is not supported there — checkpoint
        recovery is a single-process affair — and neither is corruption
        injection (torn writes / bit flips), whose repair path re-executes
        collective-bearing statements on a single rank and would deadlock
        the rank workers.
        """
        from repro.runtime.vm import VirtualMachine

        self._ensure_open()
        compiled = (
            point
            if isinstance(point, CompiledWorkload)
            else self.compile(point, optimize=optimize, check=check)
        )
        if mode is None:
            mode = self.config.mode
        mode = ExecutionMode(mode) if isinstance(mode, str) else mode
        if verify is None:
            verify = self.config.verify
        if resume is not None and mode is not ExecutionMode.EXECUTE:
            raise WorkloadError("resume= needs EXECUTE mode — there is no "
                                "checkpoint to resume in an analytic estimate")
        run_config = self.config.with_mode(mode)
        if scratch_dir is not None:
            run_config = dataclasses.replace(run_config, scratch_dir=Path(scratch_dir))
        if self.backend == "processes" and mode is ExecutionMode.EXECUTE:
            if resume is not None:
                raise WorkloadError(
                    "resume= is not supported on the 'processes' backend; "
                    "resume the checkpoint on a backend='simulated' session"
                )
            policy = run_config.fault_policy
            if policy is not None and (
                policy.torn_write_rate > 0 or policy.bitflip_rate > 0
            ):
                raise WorkloadError(
                    "corruption injection (torn_write_rate / bitflip_rate) is "
                    "not supported on the 'processes' backend: corruption "
                    "repair re-executes collective-bearing statements on one "
                    "rank, which would deadlock the other rank workers"
                )
            from repro.runtime.distributed import execute_distributed

            return execute_distributed(
                compiled, run_config, verify, start_method=self.start_method
            )
        with VirtualMachine(
            compiled.nprocs, compiled.params, run_config,
            work_dir=Path(resume) if resume is not None else None,
        ) as vm:
            if vm.work_dir is not None:
                self._track_scratch(vm.work_dir)
            if mode is ExecutionMode.ESTIMATE:
                return compiled.workload.estimate(compiled, vm)
            return compiled.workload.execute(compiled, vm, verify)

    def estimate(self, point: PointLike) -> RunRecord:
        """Evaluate one point analytically (``ESTIMATE`` mode)."""
        return self.run(point, mode=ExecutionMode.ESTIMATE)

    def execute(self, point: PointLike, verify: Optional[bool] = None) -> RunRecord:
        """Really run one point (``EXECUTE`` mode)."""
        return self.run(point, mode=ExecutionMode.EXECUTE, verify=verify)

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def sweep(
        self,
        points: Iterable[PointLike],
        mode: Optional[ExecutionMode | str] = None,
        workers: int = 1,
        verify: Optional[bool] = None,
        optimize: Optional[str | Sequence[Optional[str]]] = None,
        on_error: str = "raise",
    ) -> SweepResult:
        """Evaluate many points — possibly of different workloads — in order.

        ``workers > 1`` evaluates points concurrently in a thread pool.  Each
        point owns its virtual machine, scratch directory and cost counters,
        and records carry only simulated quantities, so the result list is
        per-field identical to a sequential sweep and returned in input
        order.  Threads pay off in ``EXECUTE`` mode, where the heavy work —
        BLAS kernels and file I/O — releases the GIL.

        The ``verify`` flag is forwarded to every point on both the
        sequential and the thread-pool paths.

        ``optimize`` sets the plan-optimizer choice: one string applies to
        every point, a sequence gives a per-point override (``None`` entries
        defer to the point / session default).  The returned
        :class:`SweepResult` is a list of records whose ``summary`` reports
        the compile-cache and planner-cache hit/miss deltas of this sweep
        and the optimizer mix actually evaluated.

        ``on_error`` decides what a failing point does to the sweep.  The
        default ``"raise"`` propagates the first exception, losing every
        record.  ``"skip"`` converts the failure into an error record — its
        ``error`` field carries ``"ExceptionType: message"``, its numeric
        fields are zero and ``record.ok`` is False — and keeps sweeping, so
        one malformed source program no longer costs a thousand-point
        overnight sweep.  Error records are counted under the explicit
        ``"error"`` bucket of ``summary["optimizers"]`` (not silently under
        ``"none"``), and each carries the optimizer that *would* have been
        used in its ``plan``.  ``summary["failed"]`` counts the skipped
        points.

        On a ``backend="processes"`` session, ``workers > 1`` evaluates the
        points in a pool of worker *processes* instead of threads — true
        CPU parallelism for compile- and compute-bound sweeps.  Each pool
        worker evaluates its points on an in-process child session, so the
        records are per-field identical to a sequential sweep; the parent's
        compile/planner caches are not shared with the pool, so the
        summary's cache deltas report only parent-side activity.
        """
        self._ensure_open()
        if on_error not in ("raise", "skip"):
            raise WorkloadError(
                f"on_error must be 'raise' or 'skip', got {on_error!r}"
            )
        if workers < 1:
            raise WorkloadError(f"workers must be at least 1, got {workers}")
        points = list(points)
        overrides = self._sweep_overrides(points, optimize)
        before = self.cache_info()

        def evaluate(point: PointLike, override: Optional[str]) -> RunRecord:
            if on_error == "raise":
                return self.run(point, mode=mode, verify=verify, optimize=override)
            try:
                return self.run(point, mode=mode, verify=verify, optimize=override)
            except Exception as exc:  # noqa: BLE001 — converted into the record
                return self._error_record(point, mode, exc, override)

        if workers > 1 and len(points) > 1 and self.backend == "processes":
            records = self._process_sweep(
                points, overrides, mode, verify, on_error, workers
            )
        elif workers > 1 and len(points) > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                records = list(
                    pool.map(lambda pair: evaluate(*pair), zip(points, overrides, strict=True))
                )
        else:
            records = [evaluate(p, o) for p, o in zip(points, overrides, strict=True)]
        after = self.cache_info()
        optimizers = collections.Counter(
            "error" if record.error is not None
            else str(record.plan.get("optimizer", "none"))
            for record in records
        )
        summary = {
            "points": len(records),
            "compile_hits": after["hits"] - before["hits"],
            "compile_misses": after["misses"] - before["misses"],
            "planner_hits": after["planner_hits"] - before["planner_hits"],
            "planner_misses": after["planner_misses"] - before["planner_misses"],
            "planner_stores": after["planner_stores"] - before["planner_stores"],
            "optimizers": dict(optimizers),
            "failed": sum(1 for record in records if record.error is not None),
        }
        return SweepResult(records, summary)

    def _process_sweep(
        self,
        points: List[PointLike],
        overrides: List[Optional[str]],
        mode: Optional[ExecutionMode | str],
        verify: Optional[bool],
        on_error: str,
        workers: int,
    ) -> List[RunRecord]:
        """Evaluate the points in a process pool (``backend="processes"``).

        Pre-compiled workloads are reduced to their points — the pool worker
        recompiles them, which is deterministic, so the records match.
        """
        from repro.runtime.distributed import default_start_method

        method = self.start_method or default_start_method()
        ctx = multiprocessing.get_context(method)
        tasks = [
            (
                self.params,
                self.config,
                self.optimize,
                self.check,
                point.point if isinstance(point, CompiledWorkload) else point,
                mode,
                verify,
                override,
                on_error,
            )
            for point, override in zip(points, overrides, strict=True)
        ]
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, mp_context=ctx
        ) as pool:
            return list(pool.map(_sweep_process_child, tasks))

    def _error_record(
        self,
        point: PointLike,
        mode: Optional[ExecutionMode | str],
        exc: Exception,
        optimize: Optional[str] = None,
    ) -> RunRecord:
        """Stand-in record for a point that failed under ``on_error="skip"``.

        The record's ``plan`` carries the optimizer that was *requested* for
        the point (call override → point field → session default), so sweep
        summaries can attribute failures to the right optimizer instead of
        lumping them under ``"none"``.
        """
        raw = point.point if isinstance(point, CompiledWorkload) else point
        effective = self.config.mode if mode is None else mode
        effective = ExecutionMode(effective) if isinstance(effective, str) else effective
        requested = optimize if optimize is not None else (raw.optimize or self.optimize)
        try:
            requested = normalize_optimizer(requested)
        except WorkloadError:  # the bad optimizer name may be the error itself
            requested = str(requested)
        return RunRecord(
            workload=raw.workload,
            label=raw.label(),
            version=raw.version,
            mode=effective.value,
            n=raw.n,
            nprocs=raw.nprocs,
            dtype=raw.dtype,
            simulated_seconds=0.0,
            io_time=0.0,
            compute_time=0.0,
            comm_time=0.0,
            io_requests_per_proc=0.0,
            io_read_bytes_per_proc=0.0,
            io_write_bytes_per_proc=0.0,
            slab_ratio=raw.slab_ratio,
            plan={"optimizer": requested},
            error=f"{type(exc).__name__}: {exc}",
        )

    @staticmethod
    def _sweep_overrides(
        points: List[PointLike],
        optimize: Optional[str | Sequence[Optional[str]]],
    ) -> List[Optional[str]]:
        """Normalise the sweep's ``optimize`` argument to one entry per point."""
        if optimize is None or isinstance(optimize, str):
            return [optimize] * len(points)
        overrides = list(optimize)
        if len(overrides) != len(points):
            raise WorkloadError(
                f"sweep got {len(points)} points but {len(overrides)} optimize "
                "overrides; pass one string or one entry per point"
            )
        return overrides

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise WorkloadError("this Session is closed; create a new one")

    def _track_scratch(self, work_dir: Path) -> None:
        """Remember a VM scratch directory so :meth:`close` can reclaim it.

        Directories that the VM cleaned up normally are pruned on the next
        call, so the set only ever holds the handful of survivors
        (``keep_files=True`` runs, or executors that crashed mid-write).
        """
        with self._scratch_lock:
            self._scratch_dirs = {d for d in self._scratch_dirs if d.exists()}
            self._scratch_dirs.add(Path(work_dir))

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the session's on-disk state deterministically.

        Removes every surviving scratch directory of the VMs this session
        created (runs with ``keep_files=True``, or executors that died
        mid-run and left their ``vm_*`` directory behind), flushes the plan
        cache's in-memory entries to its directory (when persistent) and
        drops the compile cache.  After ``close()`` the session rejects
        further ``compile``/``run``/``sweep`` calls; closing twice is a
        no-op.  The long-lived job service calls this on shutdown, and
        interactive users get the same guarantee from the context-manager
        form (``with Session(...) as s: ...``) instead of leaking scratch
        until some later session's startup reap.
        """
        if self._closed:
            return
        self._closed = True
        with self._scratch_lock:
            leftovers = list(self._scratch_dirs)
            self._scratch_dirs.clear()
        for directory in leftovers:
            if directory.exists():
                shutil.rmtree(directory, ignore_errors=True)
        self.plan_cache.flush()
        self.clear_cache()

    def __enter__(self) -> "Session":
        self._ensure_open()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        info = self.cache_info()
        return (
            f"Session(params={self.params.name!r}, mode={self.config.mode.value}, "
            f"cache {info['size']}/{info['capacity']})"
        )


def _sweep_process_child(task) -> RunRecord:
    """Pool-worker entry point of the process sweep (module level: spawn-safe).

    Rebuilds a lightweight in-process session from the parent's parameters
    and evaluates one point on it, applying the parent's ``on_error``
    contract so a failing point comes back as an error record instead of a
    pickled exception.
    """
    params, config, optimize, check, point, mode, verify, override, on_error = task
    session = Session(
        params=params, config=config, optimize=optimize, check=check,
        reap_max_age_s=None,
    )
    if on_error == "raise":
        return session.run(point, mode=mode, verify=verify, optimize=override)
    try:
        return session.run(point, mode=mode, verify=verify, optimize=override)
    except Exception as exc:  # noqa: BLE001 — converted into the record
        return session._error_record(point, mode, exc, override)
