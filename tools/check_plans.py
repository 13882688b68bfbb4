#!/usr/bin/env python
"""CI driver for the static plan verifier: ``make check-plans``.

Proves, over the scenario sets of ``tests/scenarios.py``, that the four charge
oracles agree on every compiled plan:

1. the **symbolic ledger** (:func:`repro.check.check_compiled` walking the
   node program without executing it),
2. the cost model's **PlanCost** (exact equality is part of the verifier's
   report — any disagreement is a ``ledger-drift`` finding),
3. the scalar **price** (:meth:`repro.core.cost_model.CostModel.price` from
   nothing but each unit's slab counts — what the plan search ranks
   candidates on — equal to the PlanCost field for field and to the ledger's
   bytes and requests in total), and
4. the **executed machine counters** (an ``ESTIMATE`` drive of the real
   executor; ESTIMATE and EXECUTE charge identically by construction).

Sets: ``STATIC`` (every IR builder x strategy x P x even/uneven slab
granularity, the 1-3-statement HPF shapes, CYCLIC and CYCLIC(2) with P ∤ N),
``EXECUTED`` (P | N, including every statement kind under CYCLIC and
CYCLIC(2)), ``FUSED`` (memory budgets with fusion) and ``--fuzz`` seeded
draws of :func:`~tests.scenarios.enumerate_scenarios` for the odd shapes
nobody writes tests for.  Exits non-zero on the first oracle that
disagrees.

Executed-equality caveats (documented in ``src/repro/runtime/README.md``):
the row-strategy reduction executor on more than one processor batches the
result flush into one request per streamed slab (bytes still exact), and
the single-operand
reduction runs a broadcast schedule whose charges deliberately diverge from
the paper's re-read model — those plans are verified statically only.

Run from the repository root: ``python tools/check_plans.py [--fuzz N --seed S]``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from repro.check import check_compiled  # noqa: E402
from repro.config import ExecutionMode, RunConfig  # noqa: E402
from repro.core.cost_model import CostModel  # noqa: E402
from repro.exceptions import CompilationError  # noqa: E402
from repro.runtime import NodeProgramExecutor, VirtualMachine  # noqa: E402
from repro.runtime.executor import ProgramExecutor  # noqa: E402
from tests import scenarios  # noqa: E402


class Failure(Exception):
    pass


def executed_statistics(compiled):
    with tempfile.TemporaryDirectory() as scratch:
        config = RunConfig(scratch_dir=Path(scratch), mode=ExecutionMode.ESTIMATE)
        with VirtualMachine(compiled.nprocs, compiled.params, config) as vm:
            if hasattr(compiled, "statements"):
                ProgramExecutor(compiled).run(vm, None, verify=False)
            else:
                NodeProgramExecutor(compiled).run(vm, None, verify=False)
            return vm.io_statistics()


def units_of(compiled):
    return compiled.statements if hasattr(compiled, "statements") else (compiled,)


def batches_row_flush(compiled):
    """A row-strategy reduction on more than one processor flushes per strip."""
    return compiled.nprocs > 1 and any(
        unit.node_program.strategy == "row-slab" for unit in units_of(compiled))


def verify_price(label, compiled, ledger):
    """price == PlanCost per unit, and == the ledger's totals over the plan."""
    model = CostModel(compiled.params, compiled.nprocs)
    io_bytes = io_requests = 0.0
    for unit in units_of(compiled):
        cost = unit.plan.cost
        slabs = {name: entry.num_slabs for name, entry in unit.plan.entries.items()}
        price = model.price(unit.analysis, unit.plan.strategy, slabs)
        if price != cost.price:
            raise Failure(f"{label}: price {price} != PlanCost {cost.price}")
        io_bytes += price.io_elements * cost.itemsize
        io_requests += price.io_requests
    totals = (ledger.read_bytes + ledger.write_bytes,
              ledger.read_requests + ledger.write_requests)
    if (io_bytes, io_requests) != totals:
        raise Failure(f"{label}: price totals {(io_bytes, io_requests)} != ledger {totals}")


def verify_one(label, compiled, *, execute):
    report = check_compiled(compiled)
    if not report.ok:
        raise Failure(f"{label}: {report.describe()}")
    ledger = report.ledger
    verify_price(label, compiled, ledger)
    if not execute:
        return
    stats = executed_statistics(compiled)
    checks = [
        ("bytes_read_per_proc", ledger.read_bytes),
        ("bytes_written_per_proc", ledger.write_bytes),
        ("io_read_requests_per_proc", ledger.read_requests),
    ]
    if not batches_row_flush(compiled):
        checks.append(("io_write_requests_per_proc", ledger.write_requests))
    for key, expected in checks:
        if stats[key] != expected:
            raise Failure(
                f"{label}: executed {key}={stats[key]} != ledger {expected}"
            )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fuzz", type=int, default=40,
                        help="number of seeded random configurations")
    parser.add_argument("--seed", type=int, default=1997)
    args = parser.parse_args(argv)

    checked = skipped = 0
    for scenario in scenarios.STATIC:
        try:
            compiled = scenario.compile()
        except CompilationError:
            # legitimate refusals (e.g. transpose cannot be forced to 'row')
            skipped += 1
            continue
        verify_one(scenario.label, compiled, execute=False)
        checked += 1
    print(f"static matrix: {checked} plans verified "
          f"(ledger == PlanCost == price), {skipped} non-compilable skipped")

    for scenario in scenarios.EXECUTED:
        verify_one(scenario.label, scenario.compile(), execute=True)
    print(f"executed matrix: {len(scenarios.EXECUTED)} plans verified against machine counters")

    for scenario in scenarios.FUSED:
        verify_one(scenario.label, scenario.compile(), execute=True)
    print(f"fused matrix: {len(scenarios.FUSED)} fusion-enabled plans verified against "
          "machine counters")

    fuzzed = 0
    for scenario in scenarios.enumerate_scenarios(args.fuzz, args.seed):
        verify_one(scenario.label, scenario.compile(), execute=False)
        fuzzed += 1
    print(f"fuzz sweep: {fuzzed} seeded random plans verified (seed {args.seed})")
    print("check-plans: all oracles agree")
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except Failure as failure:
        print(f"check-plans FAILED: {failure}", file=sys.stderr)
        raise SystemExit(1) from None
