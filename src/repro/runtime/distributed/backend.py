"""Parent-side orchestration of the process-parallel EXECUTE backend.

:func:`execute_distributed` runs one compiled workload point with one OS
process per rank.  The parent

1. creates a job directory (a ``vm_*`` scratch sibling, so the reaper's
   rules apply to it) and a full mesh of pairwise pipes,
2. starts one :func:`~repro.runtime.distributed.worker.run_worker` process
   per rank and waits for every result pipe,
3. max-merges the workers' charged statistics (every reported statistic is a
   maximum over processors, and each worker's machine carries exactly its own
   rank's row, so the field-wise maximum over workers *is* the simulator's
   aggregate — bit for bit),
4. gathers the result Local Array Files, verifies them against the same dense
   references the simulator uses, and
5. assembles the ordinary :class:`~repro.api.records.RunRecord`.

A worker that dies (crash, SIGKILL, unhandled exception) surfaces as a
:class:`~repro.exceptions.DistributedExecutionError`; the parent then tears
the remaining workers down and removes the job directory, so no scratch is
leaked even on failure.
"""

from __future__ import annotations

import multiprocessing
import shutil
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.config import RunConfig
from repro.exceptions import DistributedExecutionError
from repro.resilience.reaper import write_owner_file
from repro.runtime.distributed.worker import WorkerSpec, run_worker
from repro.runtime.executor import verify_outputs
from repro.runtime.laf import LocalArrayFile

__all__ = ["execute_distributed", "default_start_method"]

#: seconds between liveness sweeps while waiting on worker results
_POLL_INTERVAL_S = 0.05


def default_start_method() -> str:
    """``fork`` where available (fast), else ``spawn`` (everywhere)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ---------------------------------------------------------------------------
# merging worker statistics
# ---------------------------------------------------------------------------
def _max_merge(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    merged: Dict[str, float] = {}
    for mapping in dicts:
        for key, value in mapping.items():
            merged[key] = max(merged.get(key, 0.0), value)
    return merged


def _sum_merge(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    merged: Dict[str, float] = {}
    for mapping in dicts:
        for key, value in mapping.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


def _merge_statements(payloads: List[Dict[str, object]]) -> Tuple[Dict[str, float], ...]:
    """Re-derive per-statement deltas from max-merged cumulative boundaries.

    Each worker reports the *cumulative* charge totals at every statement
    boundary; the cross-rank aggregate of a boundary is the field-wise max
    (the critical-path convention of every reported statistic), and the
    simulator's per-statement breakdown is exactly the difference between
    consecutive aggregated boundaries — starting from zero on a fresh VM.
    """
    totals_per_worker = [p["statement_totals"] for p in payloads]
    count = max((len(t) for t in totals_per_worker), default=0)
    if count == 0:
        return ()
    statements: List[Dict[str, float]] = []
    prev_elapsed = 0.0
    prev_time: Dict[str, float] = {}
    prev_io: Dict[str, float] = {}
    for index in range(count):
        boundaries = [t[index] for t in totals_per_worker if index < len(t)]
        elapsed = max(float(b["elapsed"]) for b in boundaries)
        time_now = _max_merge([dict(b["time"]) for b in boundaries])
        io_now = _max_merge([dict(b["io"]) for b in boundaries])
        breakdown: Dict[str, float] = {"seconds": elapsed - prev_elapsed}
        breakdown.update(
            {key: time_now[key] - prev_time.get(key, 0.0) for key in time_now}
        )
        breakdown.update(
            {key: io_now[key] - prev_io.get(key, 0.0) for key in io_now}
        )
        statements.append(breakdown)
        prev_elapsed, prev_time, prev_io = elapsed, time_now, io_now
    return tuple(statements)


# ---------------------------------------------------------------------------
# gathering results
# ---------------------------------------------------------------------------
def _gather_results(compiled, payloads: List[Dict[str, object]]) -> Dict[str, np.ndarray]:
    """Reassemble each materialized result array from the workers' LAFs."""
    arrays = compiled.program.program.arrays
    gathered: Dict[str, np.ndarray] = {}
    for name in payloads[0]["results"]:
        descriptor = arrays[name]
        locals_: Dict[int, np.ndarray] = {}
        for payload in payloads:
            rank = int(payload["rank"])
            meta = payload["results"][name]
            laf = LocalArrayFile(
                Path(meta["path"]),
                descriptor.local_shape(rank),
                descriptor.dtype,
                order=meta["order"],
                create=False,
            )
            try:
                locals_[rank] = laf.read_full()
            finally:
                laf.close()
        gathered[name] = descriptor.gather(locals_)
    return gathered


# ---------------------------------------------------------------------------
# the backend entry point
# ---------------------------------------------------------------------------
def execute_distributed(
    compiled,
    config: RunConfig,
    verify: bool = True,
    start_method: Optional[str] = None,
):
    """Run one compiled workload point with one worker process per rank.

    Returns the same :class:`~repro.api.records.RunRecord` a simulated
    EXECUTE run of the point produces — with bit-identical charged
    statistics.  ``config`` must be in EXECUTE mode.
    """
    program = compiled.program
    if program is None:
        raise DistributedExecutionError(
            f"workload {compiled.workload.name!r} compiled without a program; "
            "the distributed backend cannot run it"
        )
    nprocs = int(compiled.nprocs)
    method = start_method or default_start_method()
    ctx = multiprocessing.get_context(method)

    scratch = config.ensure_scratch_dir()
    job_dir = Path(scratch) / f"vm_{uuid.uuid4().hex[:12]}"
    job_dir.mkdir(parents=True, exist_ok=True)
    write_owner_file(job_dir)

    spec = WorkerSpec(
        workload_name=compiled.workload.name,
        point=compiled.point,
        params=compiled.params,
        config=config,
        job_dir=str(job_dir),
    )

    # Full mesh of pairwise duplex pipes, created before the workers start so
    # both fork and spawn inherit the endpoints at Process creation.
    mesh: Dict[int, Dict[int, object]] = {rank: {} for rank in range(nprocs)}
    for i in range(nprocs):
        for j in range(i + 1, nprocs):
            end_i, end_j = ctx.Pipe(True)
            mesh[i][j] = end_i
            mesh[j][i] = end_j

    workers = []
    result_conns = []
    child_ends = []
    for rank in range(nprocs):
        parent_conn, child_conn = ctx.Pipe(False)
        workers.append(ctx.Process(
            target=run_worker,
            args=(rank, nprocs, spec, mesh[rank], child_conn),
            daemon=True,
        ))
        result_conns.append(parent_conn)
        child_ends.append(child_conn)

    payloads: List[Optional[Dict[str, object]]] = [None] * nprocs
    failure: Optional[Tuple[int, str, Optional[int]]] = None
    try:
        for proc in workers:
            proc.start()
        # The parent's copies of the workers' endpoints must close so a dead
        # worker's peers see EOF instead of blocking forever.
        for rank in range(nprocs):
            for conn in mesh[rank].values():
                conn.close()
            child_ends[rank].close()

        pending = set(range(nprocs))
        while pending and failure is None:
            for rank in sorted(pending):
                conn = result_conns[rank]
                if conn.poll(_POLL_INTERVAL_S):
                    try:
                        status, body = conn.recv()
                    except (EOFError, OSError):
                        status, body = (
                            "error", "result pipe closed before a result arrived"
                        )
                    if status == "ok":
                        payloads[rank] = body
                        pending.discard(rank)
                    else:
                        failure = (rank, str(body), workers[rank].exitcode)
                    break
                if not workers[rank].is_alive() and not conn.poll(0):
                    exitcode = workers[rank].exitcode
                    failure = (
                        rank,
                        f"worker process died with exit code {exitcode} "
                        "before reporting a result",
                        exitcode,
                    )
                    break
    finally:
        for proc in workers:
            if proc.is_alive():
                proc.terminate()
        for proc in workers:
            # A worker whose start() itself failed has no pid; joining it
            # would assert and mask the original error.
            if proc.pid is not None:
                proc.join(timeout=10)
        for conn in result_conns:
            conn.close()
        if failure is not None:
            shutil.rmtree(job_dir, ignore_errors=True)

    if failure is not None:
        rank, detail, exitcode = failure
        raise DistributedExecutionError(
            f"rank {rank} worker failed: {detail}", rank=rank, exitcode=exitcode
        )

    merged_payloads = [p for p in payloads if p is not None]
    elapsed = max(float(p["elapsed"]) for p in merged_payloads)
    time_breakdown = _max_merge([dict(p["time_breakdown"]) for p in merged_payloads])
    io_statistics = _max_merge([dict(p["io_statistics"]) for p in merged_payloads])
    resilience = _sum_merge([dict(p["resilience"]) for p in merged_payloads])
    statements = _merge_statements(merged_payloads)

    verified: Optional[bool] = None
    max_err: Optional[float] = None
    try:
        if verify:
            # The same seeded inputs every worker generated, checked by the
            # same routine as the simulated engines: the records compare
            # field by field.
            verified, max_err = verify_outputs(
                program,
                compiled.workload.generate_inputs(compiled, config.seed),
                _gather_results(compiled, merged_payloads),
            )
    finally:
        if not config.keep_files:
            shutil.rmtree(job_dir, ignore_errors=True)

    return compiled.workload._record(
        compiled,
        mode="execute",
        simulated_seconds=elapsed,
        time_breakdown=time_breakdown,
        io_statistics=io_statistics,
        verified=verified,
        max_abs_error=max_err,
        statements=statements,
        resilience=resilience,
    )
