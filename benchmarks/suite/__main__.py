"""``python -m benchmarks.suite``: every workload, one table, one summary.

Runs each workload as ``run.py`` would (each in child processes of its own),
prints every metric by name and unit, and writes ``out/summary.json`` (the
latest numbers; ``BENCHMARK.json`` may hold only the contract's keys).  With
``--traced`` it also makes the traced run of each workload and prints the
per-layer metrics.  The exit code is non-zero when any output check failed.
This benchmark defines the baseline; it claims no gain.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import OUT_DIR, harness
from .workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring window per workload")
    parser.add_argument("--traced", action="store_true",
                        help="also make the traced run and print per-layer metrics")
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)

    tiny = args.scale == "tiny"
    seconds = 0.0 if tiny else args.seconds
    runs = []
    harness.print_header()
    for workload in args.workload or list(WORKLOADS):
        run = harness.run_untraced(workload, args.seed, seconds, args.scale)
        harness.print_run(run)
        runs.append(run)
        if args.traced:
            traced = harness.run_traced(workload, args.seed, seconds, args.scale)
            harness.print_run(traced)
            print(f"spans: benchmarks/suite/{traced['trace_file']}")
            runs.append(traced)
    failed = sum(run["failed"] for run in runs)
    summary = {
        "header": harness.header(),
        "seed": args.seed,
        "seconds": seconds,
        "scale": args.scale,
        "runs": runs,
        # in the layout of baseline.json, to re-record it from after a change
        # that is meant to move the charged numbers
        "charged": {args.scale: {
            run["workload"]: {name: run["metrics"][name]["value"]
                              for name in ("simulated_s", "charged_io_bytes_per_proc")}
            for run in runs if "timings" in run}},
        "failed": failed,
        "claim": None,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary: benchmarks/suite/out/summary.json  failed={failed}  claim=null")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
