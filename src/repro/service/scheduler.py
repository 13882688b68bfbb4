"""The job scheduler: FIFO queue + bounded worker pool over one Session.

:class:`JobService` is the core of the compile-and-run server; the HTTP
layer (:mod:`repro.service.server`) is a thin codec over it.  Design points:

* **One shared compile path.**  Every tenant's points compile through one
  :class:`~repro.api.Session` per backend, all sessions sharing one
  :class:`~repro.planner.plan_cache.PlanCache`, so the expensive
  strip-mining / cost-model / plan-search work is paid once per distinct
  program across *all* tenants — the paper's up-front compilation cost
  amortized across millions of requests.
* **Blocking work off the loop.**  ``Session.compile`` and ``Session.run``
  are blocking; workers run them in threads (``asyncio.to_thread``).  The
  heavy parts — BLAS kernels and file I/O — release the GIL, so a pool of
  workers really overlaps jobs.  ``EXECUTE`` jobs may also route to the
  multi-process backend (``backend="processes"``), one OS process per rank.
* **Loop-confined state.**  Job state, the queue and the admission gauges
  are touched only from the event loop; worker threads just compute.
* **Per-job scratch.**  Every job gets its own UUID-suffixed scratch
  directory; its runs create their ``vm_*`` dirs inside it, admission
  measures it against the disk quota, and it is reclaimed the moment the
  job reaches a terminal state (even when a timed-out run is still
  finishing in a background thread — reclamation waits for the thread).
* **Cooperative cancellation.**  ``DELETE /jobs/{id}`` cancels a queued job
  immediately; a running job stops at the next point boundary (a blocking
  NumPy kernel cannot be interrupted mid-flight), keeps the records it
  already produced and reclaims its scratch.
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import shutil
import uuid
from pathlib import Path
from typing import Deque, Dict, List, Optional, Set

from repro.api.session import Session
from repro.api.workload import get_workload
from repro.planner.plan_cache import PlanCache
from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.jobs import (
    Job,
    JobSpec,
    JobState,
    ServiceClosedError,
    ServiceError,
    UnknownJobError,
    job_counter,
)

__all__ = ["JobService"]


class _JobCancelled(Exception):
    """Internal signal: the job observed ``cancel_requested`` at a boundary."""


class _JobTimeout(Exception):
    """Internal signal: the job blew its deadline.

    Carries the still-running future (the blocking call cannot be
    interrupted mid-thread) so ``_finish`` can defer scratch reclamation
    until the thread actually lands.
    """

    def __init__(self, stray: Optional[asyncio.Future]):
        super().__init__("job deadline exceeded")
        self.stray = stray


class JobService:
    """Multi-tenant async job service over a shared :class:`Session`.

    Parameters
    ----------
    params / config:
        Forwarded to the sessions the service creates (machine model, run
        configuration: seed, checksums, fault policy ...).  The config's
        ``scratch_dir`` is only the *root*; every job runs under its own
        subdirectory.
    policy:
        The :class:`AdmissionPolicy` (memory cap, scratch quota, queue
        depth).  Default: unlimited resources, queue depth 64.
    workers:
        Concurrent jobs (each runs its points sequentially).
    backend:
        Default execution backend (``"simulated"`` | ``"processes"``).  A
        per-job route is not exposed; run two services for that.
    scratch_root:
        Directory holding the per-job scratch dirs.  Defaults to
        ``<config scratch_dir>/service``.
    plan_cache_dir / plan_cache:
        Persistent plan store shared by every tenant (and every backend
        session): pass a directory, or an existing
        :class:`~repro.planner.plan_cache.PlanCache`.
    default_timeout_s:
        Applied to jobs that do not set their own ``timeout_s``.
    """

    def __init__(
        self,
        *,
        params=None,
        config=None,
        policy: Optional[AdmissionPolicy] = None,
        workers: int = 2,
        backend: str = "simulated",
        scratch_root: Optional[Path | str] = None,
        plan_cache_dir: Optional[Path | str] = None,
        plan_cache: Optional[PlanCache] = None,
        optimize: str = "greedy",
        check: str = "warn",
        default_timeout_s: Optional[float] = None,
    ):
        if workers < 1:
            raise ServiceError(f"workers must be at least 1, got {workers}")
        self.plan_cache = (
            plan_cache if plan_cache is not None else PlanCache(plan_cache_dir)
        )
        self.session = Session(
            params=params,
            config=config,
            backend=backend,
            plan_cache=self.plan_cache,
            optimize=optimize,
            check=check,
        )
        root = (
            Path(scratch_root)
            if scratch_root is not None
            else self.session.config.scratch_dir / "service"
        )
        self.scratch_root = root
        self.admission = AdmissionController(policy or AdmissionPolicy())
        self.workers = workers
        self.default_timeout_s = default_timeout_s
        self._jobs: Dict[int, Job] = {}
        self._queue: Deque[Job] = collections.deque()
        self._ids = job_counter()
        self._running: Set[asyncio.Task] = set()
        self._strays: Set[asyncio.Future] = set()
        self._wake = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._accepting = False
        self._started = False
        self._dispatcher: Optional[asyncio.Task] = None
        self._tenants: Dict[str, collections.Counter] = {}
        self._records_produced = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Begin accepting and dispatching jobs (idempotent)."""
        if self._started:
            return
        self._started = True
        self._accepting = True
        self.scratch_root.mkdir(parents=True, exist_ok=True)
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def drain(self) -> None:
        """Stop accepting new jobs and wait for every in-flight one.

        Queued jobs still run — a drain is graceful, not a cancellation.
        """
        self._accepting = False
        await self._idle.wait()

    async def close(self, drain: bool = True) -> None:
        """Shut the service down.

        ``drain=True`` (the default) finishes queued and running jobs
        first; ``drain=False`` cancels queued jobs, flags running ones and
        still waits for their current point to land (a blocking kernel
        cannot be killed), so scratch is always reclaimed.  Either way the
        shared session is closed, which flushes the plan cache and
        reclaims any surviving scratch.
        """
        self._accepting = False
        if not drain:
            for job in list(self._jobs.values()):
                if not job.terminal:
                    await self.cancel(job.id)
        await self._idle.wait()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
            self._dispatcher = None
        if self._strays:
            await asyncio.gather(*self._strays, return_exceptions=True)
        self.session.close()
        with contextlib.suppress(OSError):
            self.scratch_root.rmdir()  # only when empty — job dirs are gone

    # ------------------------------------------------------------------
    # submission / queries
    # ------------------------------------------------------------------
    async def submit(self, spec: JobSpec) -> Job:
        """Queue one job, subject to admission's hard-reject checks.

        Raises :class:`ServiceClosedError` when draining/closed,
        :class:`AdmissionRejected` when the queue is full or the declared
        demand exceeds a whole cap, and
        :class:`~repro.exceptions.WorkloadError` when a point names an
        unknown workload or violates its contract — all before the job
        exists, so rejected submissions never consume an id.
        """
        if not self._accepting:
            raise ServiceClosedError("the service is draining and accepts no new jobs")
        for point in spec.points:
            get_workload(point.workload).validate(point)
        self.admission.check_enqueue(len(self._queue), spec)
        job_id = next(self._ids)
        scratch = self.scratch_root / f"job-{job_id:06d}-{uuid.uuid4().hex[:8]}"
        scratch.mkdir(parents=True, exist_ok=True)
        job = Job(job_id, spec, scratch)
        self._jobs[job_id] = job
        self._queue.append(job)
        self._tenant_counter(spec.tenant)["submitted"] += 1
        self._idle.clear()
        self._wake.set()
        return job

    def get(self, job_id: int) -> Job:
        try:
            return self._jobs[int(job_id)]
        except (KeyError, ValueError, TypeError) as exc:
            raise UnknownJobError(f"no job with id {job_id!r}") from exc

    def jobs(self) -> List[Job]:
        """All known jobs, oldest first."""
        return [self._jobs[key] for key in sorted(self._jobs)]

    async def cancel(self, job_id: int) -> Job:
        """Request cancellation; queued jobs turn terminal immediately.

        Running jobs stop at their next point boundary; cancelling a
        terminal job is a no-op (the job is returned either way).
        """
        job = self.get(job_id)
        if job.terminal:
            return job
        job.cancel_requested = True
        if job.state is JobState.QUEUED:
            with contextlib.suppress(ValueError):
                self._queue.remove(job)
            await self._finish(job, JobState.CANCELLED)
        return job

    async def wait(self, job_id: int) -> Job:
        """Block until the job is terminal (test/CLI convenience)."""
        job = self.get(job_id)
        async with job.condition:
            while not job.terminal:
                await job.condition.wait()
        return job

    async def stream(self, job_id: int):
        """Yield ``{"index", "record"}`` events as records land, then the
        terminal ``{"state", "error", "records"}`` event.

        Records already produced are replayed first, so late subscribers
        see the full ordered sequence.
        """
        job = self.get(job_id)
        sent = 0
        while True:
            async with job.condition:
                while sent >= len(job.records) and not job.terminal:
                    await job.condition.wait()
                fresh = list(job.records[sent:])
                terminal = job.terminal
                state, error = job.state, job.error
            for record in fresh:
                yield {"index": sent, "record": record.to_json_dict()}
                sent += 1
            if terminal and sent >= len(job.records):
                yield {"state": state.value, "error": error, "records": sent}
                return

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self) -> Dict[str, object]:
        states = collections.Counter(job.state.value for job in self._jobs.values())
        cache = self.session.cache_info()
        compile_total = cache["hits"] + cache["misses"]
        plan_total = cache["planner_hits"] + cache["planner_misses"]
        return {
            "accepting": self._accepting,
            "workers": self.workers,
            "queue_depth": len(self._queue),
            "running": len(self._running),
            "jobs": {
                "total": len(self._jobs),
                **{state.value: states.get(state.value, 0) for state in JobState},
            },
            "records_produced": self._records_produced,
            "admission": self.admission.stats(),
            "compile_cache": {
                "hits": cache["hits"],
                "misses": cache["misses"],
                "hit_rate": cache["hits"] / compile_total if compile_total else 0.0,
            },
            "plan_cache": {
                "hits": cache["planner_hits"],
                "misses": cache["planner_misses"],
                "stores": cache["planner_stores"],
                "hit_rate": cache["planner_hits"] / plan_total if plan_total else 0.0,
                "persistent": bool(cache["planner_persistent"]),
            },
            "tenants": {
                tenant: dict(counter) for tenant, counter in sorted(self._tenants.items())
            },
        }

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _tenant_counter(self, tenant: str) -> collections.Counter:
        counter = self._tenants.get(tenant)
        if counter is None:
            counter = self._tenants[tenant] = collections.Counter()
        return counter

    async def _dispatch_loop(self) -> None:
        """Admit queued jobs FIFO into the bounded worker pool.

        Strictly FIFO: when the head of the queue cannot be admitted (caps),
        nothing behind it jumps ahead — a big job cannot be starved by a
        stream of small ones.  Every completion/release sets the wake event,
        so deferred heads are retried as soon as resources free up.
        """
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._queue and len(self._running) < self.workers:
                job = self._queue[0]
                if job.cancel_requested:
                    self._queue.popleft()
                    await self._finish(job, JobState.CANCELLED)
                    continue
                if not self.admission.try_admit(job):
                    break
                self._queue.popleft()
                async with job.condition:
                    job.advance(JobState.ADMITTED)
                task = asyncio.create_task(self._run_job(job))
                self._running.add(task)
                task.add_done_callback(self._worker_done)

    def _worker_done(self, task: asyncio.Task) -> None:
        self._running.discard(task)
        self._wake.set()
        if not task.cancelled() and task.exception() is not None:
            # _run_job converts job failures itself; anything surfacing here
            # is a service bug — re-raise it loudly on the loop.
            raise task.exception()

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_running_loop()
        timeout = (
            job.spec.timeout_s
            if job.spec.timeout_s is not None
            else self.default_timeout_s
        )
        deadline = loop.time() + timeout if timeout is not None else None
        try:
            for point in job.spec.points:
                if job.cancel_requested:
                    raise _JobCancelled
                await self._advance(job, JobState.COMPILING)
                compiled = await self._bounded(
                    asyncio.to_thread(self.session.compile, point), deadline
                )
                if job.cancel_requested:
                    raise _JobCancelled
                await self._advance(job, JobState.RUNNING)
                record = await self._bounded(
                    asyncio.to_thread(
                        self.session.run,
                        compiled,
                        mode=job.spec.mode,
                        verify=job.spec.verify,
                        scratch_dir=job.scratch_dir,
                    ),
                    deadline,
                )
                async with job.condition:
                    job.records.append(record)
                    self._records_produced += 1
                    job.condition.notify_all()
            await self._finish(
                job,
                JobState.CANCELLED if job.cancel_requested else JobState.DONE,
            )
        except _JobCancelled:
            await self._finish(job, JobState.CANCELLED)
        except _JobTimeout as exc:
            job.error = f"JobTimeout: job exceeded its {timeout:g}s budget"
            await self._finish(job, JobState.FAILED, stray=exc.stray)
        except Exception as exc:  # noqa: BLE001 — any failure becomes the job's error
            job.error = f"{type(exc).__name__}: {exc}"
            await self._finish(job, JobState.FAILED)

    async def _bounded(self, coro, deadline: Optional[float]):
        """Await ``coro`` under the job deadline.

        On timeout the underlying thread keeps running (blocking work cannot
        be interrupted), so the raised :class:`_JobTimeout` carries the live
        future and scratch reclamation waits for it.
        """
        future = asyncio.ensure_future(coro)
        if deadline is None:
            return await future
        remaining = deadline - asyncio.get_running_loop().time()
        try:
            return await asyncio.wait_for(asyncio.shield(future), max(remaining, 0))
        except (TimeoutError, asyncio.TimeoutError):
            raise _JobTimeout(future) from None

    async def _advance(self, job: Job, state: JobState) -> None:
        async with job.condition:
            job.advance(state)
            job.condition.notify_all()

    async def _finish(
        self,
        job: Job,
        state: JobState,
        *,
        stray: Optional[asyncio.Future] = None,
    ) -> None:
        """Terminal transition + resource release + scratch reclamation."""
        async with job.condition:
            if job.state is not state:
                job.advance(state)
            job.condition.notify_all()
        self._tenant_counter(job.spec.tenant)[state.value] += 1
        if stray is not None and not stray.done():
            # A timed-out run is still in its thread: release/reap only when
            # it lands, or we would rmtree scratch under a live writer.
            self._strays.add(stray)
            stray.add_done_callback(lambda fut: self._stray_done(fut, job))
        else:
            if stray is not None:
                # consume the stray's exception so the loop never warns
                with contextlib.suppress(BaseException):
                    stray.exception()
            self._reclaim(job)

    def _stray_done(self, future: asyncio.Future, job: Job) -> None:
        self._strays.discard(future)
        with contextlib.suppress(BaseException):
            future.exception()
        self._reclaim(job)

    def _reclaim(self, job: Job) -> None:
        self.admission.release(job)
        shutil.rmtree(job.scratch_dir, ignore_errors=True)
        self._wake.set()
        if all(j.terminal for j in self._jobs.values()) and not self._queue:
            self._idle.set()
