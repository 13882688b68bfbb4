"""Wall-clock benchmark of the EXECUTE-mode fast path.

Runs a fixed EXECUTE-mode GAXPY sweep (both slabbing strategies at a size
large enough for the host-side cost to dominate) and records the wall-clock
time together with the *charged* statistics (simulated seconds, I/O requests
and bytes per processor).

The first run against a repository writes its measurements as the
``baseline`` entry of the JSON file; subsequent runs write the ``current``
entry and compute the speedup.  Because the charged statistics are recorded
alongside the wall clock, the file also serves as a regression check for the
invariant that the fast path changes host time only: ``baseline`` and
``current`` must agree on every simulated number.

Usage::

    python -m benchmarks.bench_fastpath --json BENCH_fastpath.json
    make bench
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api import Session, WorkloadPoint  # noqa: E402
from repro.config import ExecutionMode, RunConfig  # noqa: E402

N = 256
NPROCS = 4
SLAB_RATIO = 0.25
VERSIONS = ("column", "row")

#: field name in the JSON file (kept from the first baseline) -> RunRecord attribute
SIMULATED_FIELDS = {
    "time": "simulated_seconds",
    "io_time": "io_time",
    "compute_time": "compute_time",
    "comm_time": "comm_time",
    "io_requests_per_proc": "io_requests_per_proc",
    "io_bytes_per_proc": "io_bytes_per_proc",
}


def _points():
    return [WorkloadPoint("gaxpy", n=N, nprocs=NPROCS, version=version,
                          slab_ratio=SLAB_RATIO)
            for version in VERSIONS]


def measure(workers: int = 1, repeats: int = 1) -> dict:
    """Run the fixed sweep ``repeats`` times and return the best wall clock."""
    best_wall = None
    records = None
    for _ in range(max(1, repeats)):
        with tempfile.TemporaryDirectory(prefix="bench-fastpath-") as scratch:
            start = time.perf_counter()
            # A fresh Session per repeat: compilation is inside the window.
            with Session(config=RunConfig(scratch_dir=scratch)) as session:
                records = session.sweep(_points(), mode=ExecutionMode.EXECUTE,
                                        workers=workers)
            wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
    simulated = {
        record.version: {
            field: getattr(record, attribute)
            for field, attribute in SIMULATED_FIELDS.items()
        }
        for record in records
    }
    return {
        "wall_seconds": best_wall,
        "workers": workers,
        "repeats": repeats,
        "simulated": simulated,
        "verified": all(record.verified is True for record in records),
    }


def _simulated_drift(baseline: dict, current: dict) -> list:
    """Fields on which the charged statistics moved (must stay empty)."""
    drift = []
    for version, fields in baseline.get("simulated", {}).items():
        for field, value in fields.items():
            now = current["simulated"].get(version, {}).get(field)
            if now != value:
                drift.append(f"{version}.{field}: {value!r} -> {now!r}")
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, default=Path("BENCH_fastpath.json"),
                        help="result file (baseline is kept across runs)")
    parser.add_argument("--workers", type=int, default=4,
                        help="sweep workers for the current measurement")
    parser.add_argument("--repeats", type=int, default=2,
                        help="take the best wall clock of this many runs")
    parser.add_argument("--reset-baseline", action="store_true",
                        help="overwrite the stored baseline with this run")
    args = parser.parse_args(argv)

    existing = {}
    if args.json.exists():
        existing = json.loads(args.json.read_text())

    measurement = measure(workers=args.workers, repeats=args.repeats)

    result = {
        "benchmark": "fastpath-execute-sweep",
        "config": {"n": N, "nprocs": NPROCS, "slab_ratio": SLAB_RATIO,
                   "versions": list(VERSIONS)},
    }
    if args.reset_baseline or "baseline" not in existing:
        result["baseline"] = measurement
        print(f"recorded baseline: {measurement['wall_seconds']:.3f}s wall")
    else:
        result["baseline"] = existing["baseline"]
        result["current"] = measurement
        baseline_wall = existing["baseline"]["wall_seconds"]
        result["speedup"] = baseline_wall / measurement["wall_seconds"]
        print(f"baseline: {baseline_wall:.3f}s wall")
        print(f"current:  {measurement['wall_seconds']:.3f}s wall "
              f"({result['speedup']:.2f}x speedup)")
        drift = _simulated_drift(existing["baseline"], measurement)
        result["simulated_drift"] = drift
        if drift:
            print("ERROR: charged statistics moved (the fast path must only "
                  "change host time):")
            for line in drift:
                print(f"  {line}")
            args.json.write_text(json.dumps(result, indent=2) + "\n")
            return 1
        print("charged statistics identical to baseline")

    result["unix_time"] = time.time()
    args.json.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
