"""What a measuring child process does: set up, say READY, measure, report.

One child measures one workload with tracing off.  The parent (``run.py``)
times the child from spawn to its ``READY`` line — that is ``setup_s`` — and
reads the child's last line, one JSON object, for everything else.  Every
pass is also an output check: a pass whose records fail a check below counts
in ``failed``.
"""

from __future__ import annotations

import json
import math
import resource
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import RunRecord, Session
from repro.config import RunConfig
from repro.service import JobService, JobSpec, ServiceClient, serve_in_thread

from .workloads import Plan, build_plan

READY = "READY"
# A pass with verification off, then one as a default user runs it; the two
# kinds alternate so both medians see the same machine conditions.
PATTERN: Tuple[Optional[bool], ...] = (False, None)
CLIENTS = 2
WORKERS = 2
COUNTER_FIELDS = ("io_requests_per_proc", "io_read_bytes_per_proc",
                  "io_write_bytes_per_proc")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def charged(records: Sequence[RunRecord]) -> Tuple[float, float]:
    """(simulated seconds, charged I/O bytes per proc) summed over a pass.

    ``fsum`` is exactly rounded, so the sums do not depend on record order.
    """
    return (math.fsum(r.simulated_seconds for r in records),
            math.fsum(r.io_bytes_per_proc for r in records))


class Checks:
    """Counts attempted operations and the ones that failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.reference: Optional[Tuple[float, float]] = None

    def operation(self, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    def pass_problems(self, records: Sequence[RunRecord], verify: Optional[bool]) -> List[str]:
        """Problems of one pass: errors, oracle verdicts, charged drift."""
        problems = [f"{r.label}: {r.error}" for r in records if r.error is not None]
        wanted = None if verify is False else True
        problems += [f"{r.label}: verified is {r.verified!r}, expected {wanted!r}"
                     for r in records if r.mode == "execute" and r.verified is not wanted]
        totals = charged(records)
        if self.reference is None:
            self.reference = totals
        elif totals != self.reference:
            problems.append(f"charged totals {totals} differ from the first pass "
                            f"{self.reference}")
        return problems

    def report(self) -> Dict[str, object]:
        simulated, io_bytes = self.reference or (0.0, 0.0)
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "simulated_s": simulated,
            "charged_io_bytes_per_proc": io_bytes,
            "peak_rss_mb": peak_rss_mb(),
        }


def keep_going(deadline: float, samples: Dict[Optional[bool], list]) -> bool:
    """Measure until the deadline, and at least one pass of each kind."""
    return time.perf_counter() < deadline or not all(samples.values())


# ---------------------------------------------------------------------------
# EXECUTE workloads
# ---------------------------------------------------------------------------
def execute_pass(session: Session, compiled: Sequence[object],
                 verify: Optional[bool]) -> Tuple[float, List[RunRecord]]:
    start = time.perf_counter()
    records = [session.run(c, "execute", verify=verify) for c in compiled]
    return time.perf_counter() - start, records


def warm_up(session: Session, compiled: Sequence[object]) -> None:
    """Three untimed passes, both kinds: a process needs that many before a
    pass costs what the next hundred will.  With the default two BLAS threads
    the first four N=256 GAXPY runs of a process take 0.19 s and the fifth
    0.045 s; with ``OPENBLAS_NUM_THREADS=1`` the first already takes 0.044 s."""
    for verify in (False, None, False):
        execute_pass(session, compiled, verify)


def setup_execute(plan: Plan, scratch: Path) -> Tuple[Session, List[object]]:
    session = Session(config=RunConfig(scratch_dir=scratch, seed=plan.seed))
    compiled = [session.compile(point) for point in plan.points]
    warm_up(session, compiled)
    return session, compiled


def estimate_agrees(session: Session, compiled: Sequence[object],
                    records: Sequence[RunRecord]) -> List[str]:
    """ESTIMATE must charge the counters an EXECUTE run charged (whole
    programs drive the same slab loops charge-only)."""
    problems = []
    for program, executed in zip(compiled, records, strict=True):
        estimated = session.run(program, "estimate")
        problems += [
            f"{executed.label}: estimate {field}={getattr(estimated, field)!r} != "
            f"execute {getattr(executed, field)!r}"
            for field in COUNTER_FIELDS
            if getattr(estimated, field) != getattr(executed, field)
        ]
    return problems


def measure_execute(plan: Plan, scratch: Path, seconds: float,
                    setup_only: bool) -> Dict[str, object]:
    session, compiled = setup_execute(plan, scratch)
    print(READY, flush=True)
    if setup_only:
        session.close()
        return {}
    checks = Checks()
    times: Dict[Optional[bool], List[float]] = {False: [], None: []}
    deadline = time.perf_counter() + seconds
    index = 0
    records: List[RunRecord] = []
    while keep_going(deadline, times):
        verify = PATTERN[index % len(PATTERN)]
        index += 1
        elapsed, records = execute_pass(session, compiled, verify)
        times[verify].append(elapsed)
        checks.operation(checks.pass_problems(records, verify))
    if any(point.workload == "hpf" for point in plan.points):
        checks.operation(estimate_agrees(session, compiled, records))
    session.close()
    return {
        **checks.report(),
        "run_samples": times[False],
        "verified_samples": times[None],
    }


# ---------------------------------------------------------------------------
# compile_sweep: one pass, run in a fresh interpreter by the parent
# ---------------------------------------------------------------------------
def sweep_pass(plan: Plan, scratch: Path, check: Optional[str]) -> Dict[str, object]:
    """Cold-compile then ESTIMATE every program; ``check=None`` keeps the
    Session default (the static verifier on), ``"off"`` skips it."""
    session = Session(config=RunConfig(scratch_dir=scratch, seed=plan.seed))
    compile_s, estimate_s, records = [], [], []
    for point in plan.points:
        start = time.perf_counter()
        compiled = session.compile(point, check=check)
        middle = time.perf_counter()
        records.append(session.run(compiled, "estimate"))
        compile_s.append(middle - start)
        estimate_s.append(time.perf_counter() - middle)
    info = session.cache_info()
    session.close()
    # Cold means cold: nothing may have been answered from a cache.
    searched = sum(1 for point in plan.points if point.optimize != "none")
    problems = [f"{r.label}: {r.error}" for r in records if r.error is not None]
    if info["misses"] != len(plan.points) or info["hits"] != 0:
        problems.append(f"compile cache hits={info['hits']} misses={info['misses']}, "
                        f"expected 0 and {len(plan.points)}")
    if info["planner_misses"] != searched or info["planner_hits"] != 0:
        problems.append(f"planner cache hits={info['planner_hits']} "
                        f"misses={info['planner_misses']}, expected 0 and {searched}")
    simulated, io_bytes = charged(records)
    return {
        "compile_s": compile_s,
        "estimate_s": estimate_s,
        "problems": problems,
        "simulated_s": simulated,
        "charged_io_bytes_per_proc": io_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }


# ---------------------------------------------------------------------------
# served_mix
# ---------------------------------------------------------------------------
class Served:
    """A running 2-worker service with two blocking clients."""

    def __init__(self, plan: Plan, scratch: Path):
        self.plan = plan
        self.service = JobService(
            config=RunConfig(scratch_dir=scratch / "served", seed=plan.seed),
            workers=WORKERS,
        )
        self.handle = serve_in_thread(self.service)
        self.clients = [ServiceClient(port=self.handle.port) for _ in range(CLIENTS)]

    def block(self, index: int, verify: Optional[bool]) -> Tuple[float, List[Dict[str, object]]]:
        """Run the jobs of block ``index`` closed-loop: each client submits its
        next job only after it has fetched the previous job's records."""
        order = self.plan.job_order(index)
        jobs: List[Dict[str, object]] = []
        lock = threading.Lock()

        def client_loop(which: int) -> None:
            client = self.clients[which]
            for kind, tenant in order[which::CLIENTS]:
                spec = JobSpec(points=(self.plan.points[kind],), tenant=tenant, verify=verify)
                job: Dict[str, object] = {"kind": kind, "records": [], "state": "lost"}
                start = time.perf_counter()
                try:
                    snapshot = client.submit(spec)
                    job["submit_s"] = time.perf_counter() - start
                    job["state"] = client.wait(snapshot["id"])["state"]
                    job["records"] = client.records(snapshot["id"])
                except Exception as exc:  # noqa: BLE001 — counted as a failed job
                    job["state"] = f"{type(exc).__name__}: {exc}"
                job["latency_s"] = time.perf_counter() - start
                with lock:
                    jobs.append(job)

        threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start, jobs

    def warm_up(self) -> None:
        """Three untimed blocks (24 jobs), as :func:`warm_up` does passes."""
        for index, verify in enumerate((False, None, False)):
            self.block(-1 - index, verify)

    def close(self) -> None:
        self.handle.close()


def direct_twins(plan: Plan, scratch: Path, verify: Optional[bool]) -> List[RunRecord]:
    """Each job kind through a plain ``Session.run``: the record a served
    job of that kind must equal."""
    with Session(config=RunConfig(scratch_dir=scratch / "direct", seed=plan.seed)) as session:
        return [session.run(point, "execute", verify=verify) for point in plan.points]


def job_problems(job: Dict[str, object], twins: Sequence[RunRecord]) -> List[str]:
    if job["state"] != "done":
        return [f"job of kind {job['kind']} ended {job['state']}"]
    records = job["records"]
    if len(records) != 1 or records[0] != twins[int(job["kind"])]:
        return [f"served record of kind {job['kind']} != its direct twin"]
    return []


def measure_served(plan: Plan, scratch: Path, seconds: float,
                   setup_only: bool) -> Dict[str, object]:
    served = Served(plan, scratch)
    try:
        served.warm_up()
        print(READY, flush=True)
        if setup_only:
            return {}
        blocks: Dict[Optional[bool], List[Tuple[float, List[Dict[str, object]]]]] = {
            False: [], None: []}
        deadline = time.perf_counter() + seconds
        index = 0
        while keep_going(deadline, blocks):
            verify = PATTERN[index % len(PATTERN)]
            blocks[verify].append(served.block(index, verify))
            index += 1
    finally:
        served.close()

    checks = Checks()
    for verify, measured in blocks.items():
        twins = direct_twins(plan, scratch, verify)
        for _, jobs in measured:
            for job in jobs:
                checks.operation(job_problems(job, twins))
            # and the block as a whole: oracle verdicts, charged totals
            records = [record for job in jobs for record in job["records"]]
            checks.operation(checks.pass_problems(records, verify))
    fast = blocks[False]
    return {
        **checks.report(),
        "run_samples": [job["latency_s"] for _, jobs in fast for job in jobs],
        "verified_samples": [job["latency_s"] for _, jobs in blocks[None] for job in jobs],
        # throughput with both clients in flight, over the same blocks
        "jobs_per_s": sum(len(jobs) for _, jobs in fast) / sum(wall for wall, _ in fast),
    }


# ---------------------------------------------------------------------------
def child_main(role: str, workload: str, seed: int, seconds: float, scale: str,
               scratch: Path, setup_only: bool, check: Optional[str]) -> int:
    """Entry point of a child process; prints READY, then one JSON line."""
    plan = build_plan(workload, seed, scale)
    if role == "sweep-pass":
        result = sweep_pass(plan, scratch, check)
        print(READY, flush=True)
    elif plan.kind == "served":
        result = measure_served(plan, scratch, seconds, setup_only)
    else:
        result = measure_execute(plan, scratch, seconds, setup_only)
    print(json.dumps(result), flush=True)
    return 0
