"""Host-time gates: the wall-clock checks no charged number can stand for.

Four gates, each a ratio of two wall clocks measured back to back:

* **checksum overhead** — the N = 768 two-statement pipeline (``t = a @ b;
  c = t + d``, P = 4, slab ratio 1/4) run in EXECUTE with checksums on may
  cost at most 5 % more wall time than with checksums off (the smallest
  on/off ratio of five back-to-back pairs, so host-load drift cancels);
* **verification cost** — the two points of the suite's ``stream_rw_1k``
  (a transpose, then an elementwise add; N = 1024, P = 4, slab ratio 1/4)
  run in EXECUTE and verified may take at most 2x the wall time of the same
  runs unverified (the smallest verified/unverified ratio of five
  back-to-back pairs), so checking an O(N^2) result costs less than
  computing it;
* **process pool** — a four-point EXECUTE GAXPY sweep (N = 256, P = 4,
  column slabs) on ``backend="processes"`` must be at least 2x faster than
  on the thread pool;
* **service** — eight jobs (the four N = 128 kinds, twice) from four
  tenants, POSTed concurrently to a 4-worker ``JobService`` over HTTP, must
  finish at least 2x faster than a serial loop of ``Session.run``.

The two speedups are enforced only on machines with at least 4 CPUs; on
fewer they are printed.  What each pair charges is not checked here:
``tests/test_charged_dump.py`` compares every configuration above with the
committed ``CHARGED.jsonl``, and tier-1 checks that processes == simulated
and served == direct.

Usage::

    python -m benchmarks.host_gates
    make host-gates
"""

from __future__ import annotations

import os
import sys
import tempfile
import threading
import time
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
for _path in (_REPO, _REPO / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.api import Session  # noqa: E402
from repro.config import RunConfig  # noqa: E402
from repro.service import JobService, JobSpec, ServiceClient, serve_in_thread  # noqa: E402
from tests.scenarios import Scenario  # noqa: E402

MAX_CHECKSUM_OVERHEAD = 0.05
CHECKSUM_PAIRS = 5
MAX_VERIFY_RATIO = 2.0
VERIFY_PAIRS = 5
MIN_SPEEDUP = 2.0
MIN_CPUS_FOR_SPEEDUP_GATE = 4
WORKERS = 4


def _wall(run) -> float:
    start = time.perf_counter()
    run()
    return time.perf_counter() - start


def checksum_overhead(scratch: Path) -> float:
    """Wall time of checksums on over off, minus one, at the best pair."""
    point = Scenario("mm_add", 768, 4, ratio=0.25).point()

    def execute(checksums: bool) -> float:
        config = RunConfig(scratch_dir=scratch, checksums=checksums)
        with Session(config=config, reap_max_age_s=None) as session:
            compiled = session.compile(point)
            return _wall(lambda: session.execute(compiled))

    ratios = []
    for _ in range(CHECKSUM_PAIRS):
        off = execute(False)
        ratios.append(execute(True) / off)
    return min(ratios) - 1.0


def verification_ratio(scratch: Path) -> float:
    """Wall time of the stream points verified over unverified, at the best pair."""
    points = [Scenario(shape, 1024, 4, ratio=0.25).point()
              for shape in ("transpose", "elementwise")]
    with Session(config=RunConfig(scratch_dir=scratch), reap_max_age_s=None) as session:
        compiled = [session.compile(point) for point in points]

        def execute(verify: bool) -> float:
            return _wall(lambda: [session.execute(each, verify=verify) for each in compiled])

        for verify in (False, True):  # the first runs of a process pay one-time costs
            execute(verify)
        ratios = []
        for _ in range(VERIFY_PAIRS):
            off = execute(False)
            ratios.append(execute(True) / off)
    return min(ratios)


def process_pool_speedup(scratch: Path) -> float:
    """Thread-pool over process-pool wall time of one EXECUTE sweep."""
    points = [Scenario("gaxpy", 256, 4, ratio=0.25, strategy="column").point()] * WORKERS

    def sweep(backend: str) -> float:
        with Session(config=RunConfig(scratch_dir=scratch), backend=backend) as session:
            return _wall(lambda: session.sweep(points, mode="execute", workers=WORKERS))

    return sweep("simulated") / sweep("processes")


def service_speedup(scratch: Path) -> float:
    """Serial ``Session.run`` loop over served wall time of the same jobs."""
    points = [Scenario(shape, 128, 4, ratio=0.25, strategy=strategy).point()
              for shape, strategy in (("gaxpy", "column"), ("gaxpy", "row"),
                                      ("transpose", None), ("elementwise", None))] * 2
    with Session(config=RunConfig(scratch_dir=scratch / "direct", seed=1997)) as session:
        serial = _wall(lambda: [session.run(point, mode="execute") for point in points])
    service = JobService(config=RunConfig(scratch_dir=scratch / "served", seed=1997),
                         workers=WORKERS)
    handle = serve_in_thread(service)
    try:
        client = ServiceClient(port=handle.port)
        jobs = [None] * len(points)

        def submit(index: int) -> None:
            jobs[index] = client.submit(JobSpec(points=(points[index],),
                                                tenant=f"tenant-{index % 4}"))

        def serve() -> None:
            submitters = [threading.Thread(target=submit, args=(index,))
                          for index in range(len(points))]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join()
            for job in jobs:
                client.wait(job["id"])

        served = _wall(serve)
    finally:
        handle.close()
    return serial / served


def main() -> int:
    cpus = os.cpu_count() or 1
    enforced = cpus >= MIN_CPUS_FOR_SPEEDUP_GATE
    failed = False
    with tempfile.TemporaryDirectory(prefix="host-gates-") as scratch:
        scratch = Path(scratch)
        overhead = checksum_overhead(scratch)
        ok = overhead <= MAX_CHECKSUM_OVERHEAD
        failed |= not ok
        print(f"checksum overhead: {overhead * 100:+.1f}% "
              f"(at most {MAX_CHECKSUM_OVERHEAD * 100:.0f}%) {'ok' if ok else 'FAIL'}")
        ratio = verification_ratio(scratch)
        ok = ratio <= MAX_VERIFY_RATIO
        failed |= not ok
        print(f"verified vs unverified stream: {ratio:.2f}x "
              f"(at most {MAX_VERIFY_RATIO:.1f}x) {'ok' if ok else 'FAIL'}")
        for name, measure in (("process pool vs threads", process_pool_speedup),
                              ("service vs serial loop", service_speedup)):
            speedup = measure(scratch)
            ok = speedup >= MIN_SPEEDUP or not enforced
            failed |= not ok
            verdict = ("ok" if ok else "FAIL") if enforced else "not enforced"
            print(f"{name}: {speedup:.2f}x (at least {MIN_SPEEDUP:.1f}x on "
                  f">= {MIN_CPUS_FOR_SPEEDUP_GATE} CPUs, {cpus} here) {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
