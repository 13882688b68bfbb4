#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation section.

Runs the paper-scale configurations (1K x 1K and 2K x 2K arrays, 4–64
processors) through the analytic estimator on the Touchstone-Delta-like
machine model and prints:

* Figure 10 — effect of slab-size variation (column-slab version),
* Table 1  — column-slab vs row-slab vs in-core,
* Table 2  — slab-size selection for multiple arrays,

plus the memory allocation ablation.  Absolute seconds are not expected to match
the 1994 measurements; the relative behaviour (who wins, by what factor, how
times move with slab ratio and processor count) is the reproduction target —
see EXPERIMENTS.md for the side-by-side numbers.

Run with::

    python examples/reproduce_paper_tables.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments import (
    run_figure10,
    run_memory_allocation_ablation,
    run_table1,
    run_table2,
)


def main() -> int:
    print("=" * 72)
    figure10 = run_figure10()
    print(figure10["table"])
    print()

    print("=" * 72)
    table1 = run_table1()
    print(table1["table"])
    speedups = table1["speedups"]
    print(
        f"\nrow-slab vs column-slab speedup: "
        f"min {min(speedups.values()):.1f}x, max {max(speedups.values()):.1f}x"
    )
    print()

    print("=" * 72)
    table2 = run_table2()
    print(table2["table"])
    best = table2["best"]
    print(
        "\nbest configuration per experiment: "
        f"grow B -> {best['vary_b']['time']:.2f}s, grow A -> {best['vary_a']['time']:.2f}s "
        "(growing A wins, as the paper concludes)"
    )
    print()

    print("=" * 72)
    print(run_memory_allocation_ablation()["table"])
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
