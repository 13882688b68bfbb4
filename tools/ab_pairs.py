#!/usr/bin/env python
"""Paired parent/change runs of the benchmark suite (choosing-metrics, section 8).

``python tools/ab_pairs.py --parent <checkout> --workload <name> [--pairs 10]``
runs the command ``BENCHMARK.json`` declares — the same command, seed and run
length on both sides — once in the parent checkout and once in this tree per
pair, alternating which side goes first, a fresh seed per pair.  For every
end-to-end metric it prints each side's median and quartiles, the change's
wins over the pairs (ties count for neither side), and whether the medians
differ by more than the parent's own inter-quartile range: a gain may be
claimed when the change wins at least nine tenths of the pairs *and* the
difference exceeds that spread.  ``make ab PARENT=<dir> W=<workload>`` is the
same.  It only invokes the suite's command; it edits nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, command: List[str], workload: str, seed: int,
             seconds: float) -> Dict[str, object]:
    """One untraced run in ``checkout``; the suite's closing JSON line, parsed."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{' '.join(argv)} in {checkout} printed no result line "
            f"(exit {done.returncode}):\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def report(metric: Dict[str, object], parent: List[float], change: List[float]) -> str:
    lower = metric["better"] == "lower"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change, strict=True))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change, strict=True))
    gain = (p_med - c_med) if lower else (c_med - p_med)
    relative = f"{(c_med - p_med) / p_med:+.1%}" if p_med else "n/a"
    beyond = "yes" if gain > (p_q3 - p_q1) else "no"
    # the benchmark's regression bound is relative to the parent's median
    within = ("ok" if -gain <= float(metric["bound"]) * abs(p_med)
              else f"WORSE than bound {metric['bound']}")
    return (
        f"{metric['name']:<28} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]  "
        f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}]  {relative}  "
        f"wins {wins}/{len(parent)} (losses {losses})  beyond parent IQR: {beyond}  {within}"
    )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="a checkout of the parent commit (git clone / git archive)")
    parser.add_argument("--workload", required=True, action="append",
                        help="suite workload name; repeat for several")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=None,
                        help="seed of the first pair (default: from the clock); "
                             "pair i uses seed0 + i on both sides")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = benchmark["command"], benchmark["run_seconds"]
    metrics = benchmark["end_to_end"]
    if not (args.parent / command[-1]).is_file():
        parser.error(f"{args.parent} has no {command[-1]}: not a checkout of this repository")
    seed0 = int(time.time()) % 1_000_000 if args.seed0 is None else args.seed0

    status = 0
    for workload in args.workload:
        samples = {side: {m["name"]: [] for m in metrics} for side in ("parent", "change")}
        failed = {"parent": 0, "change": 0}
        attempted = {"parent": 0, "change": 0}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else ROOT
                result = run_once(checkout, command, workload, seed0 + pair, seconds)
                # a run whose output check failed counts as one failed operation
                failed[side] += int(result["failed"]) + (not result["correct"])
                attempted[side] += int(result["attempted"])
                for m in metrics:
                    samples[side][m["name"]].append(float(result["metrics"][m["name"]]["value"]))
            latest = "  ".join(
                f"{name} parent {samples['parent'][name][-1]:.4f} "
                f"change {samples['change'][name][-1]:.4f}"
                for name in ("run_s", "verified_run_s")
            )
            print(f"# {workload} pair {pair + 1}/{args.pairs} seed {seed0 + pair} "
                  f"first {order[0]}: {latest}", flush=True)
        print(f"## {workload}  pairs={args.pairs}  seeds {seed0}..{seed0 + args.pairs - 1}  "
              f"failed parent {failed['parent']}/{attempted['parent']} "
              f"change {failed['change']}/{attempted['change']}")
        for m in metrics:
            print(report(m, samples["parent"][m["name"]], samples["change"][m["name"]]))
        if failed["change"] > failed["parent"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
