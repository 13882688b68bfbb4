"""Contract entry point of the benchmark (see ``BENCHMARK.json``).

``python3 benchmarks/suite/run.py --workload W --seed S --seconds T --trace 0|1``
prints every metric of one workload by name and unit, and as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The exit code is non-zero when an output check failed.

The same file is the child entry point (``--role``): the parent spawns fresh
interpreters of it so that set-up and cold compiles are really cold.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny: the smoke test's sizes")
    # child-only arguments
    parser.add_argument("--role", default="parent", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; the benchmark measures the "
              "program under src/ and cannot run without it", file=sys.stderr)
        return 2
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    from benchmarks.suite import harness
    from benchmarks.suite.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {list(WORKLOADS)})")

    if args.role == "trace":
        from benchmarks.suite import layers

        return layers.child_main(args.workload, args.seed, args.seconds, args.scale,
                                 args.scratch)
    if args.role != "parent":
        from benchmarks.suite import measure

        return measure.child_main(args.role, args.workload, args.seed, args.seconds,
                                  args.scale, args.scratch, args.setup_only, args.check)

    if args.trace:
        run = harness.run_traced(args.workload, args.seed, args.seconds, args.scale)
    else:
        run = harness.run_untraced(args.workload, args.seed, args.seconds, args.scale)
    harness.print_header()
    harness.print_run(run)
    print(harness.result_line(run))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
