#!/usr/bin/env python
"""CI driver for the static plan verifier: ``make check-plans``.

Proves, over the full workload differential matrix, that the four charge
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

Matrix: every workload builder x strategy x P in {1, 4} x even/uneven slab
granularity, 1–3-statement HPF programs, plus a seeded random sweep for the
odd shapes nobody writes tests for.  Exits non-zero on the first oracle that
disagrees.

Executed-equality caveats (documented in ``src/repro/runtime/README.md``):
the row-strategy reduction executor batches the result flush into one
request per streamed slab (bytes still exact), and the single-operand
reduction runs a broadcast schedule whose charges deliberately diverge from
the paper's re-read model — those plans are verified statically only.
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.check import check_compiled  # noqa: E402
from repro.config import ExecutionMode, RunConfig  # noqa: E402
from repro.core.cost_model import CostModel  # noqa: E402
from repro.core.ir import (  # noqa: E402
    build_elementwise_ir,
    build_gaxpy_ir,
    build_pipeline_ir,
    build_transpose_ir,
)
from repro.core.pipeline import compile_program  # noqa: E402
from repro.exceptions import CompilationError  # noqa: E402
from repro.hpf.frontend import frontend_to_ir  # noqa: E402
from repro.hpf.parser import parse_program  # noqa: E402
from repro.runtime import NodeProgramExecutor, VirtualMachine  # noqa: E402
from repro.runtime.executor import ProgramExecutor  # noqa: E402

BUILDERS = {
    "gaxpy": build_gaxpy_ir,
    "elementwise": build_elementwise_ir,
    "transpose": build_transpose_ir,
    "pipeline": build_pipeline_ir,
}

TWO_STATEMENT_SOURCE = """
program two
  parameter (n = 16, nprocs = 4)
  real a(n, n), b(n, n), t(n, n), d(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template tmpl(n)
!hpf$ distribute tmpl(block) onto Pr
!hpf$ align a(*, :) with tmpl
!hpf$ align t(*, :) with tmpl
!hpf$ align d(*, :) with tmpl
!hpf$ align c(*, :) with tmpl
!hpf$ align b(:, *) with tmpl
  do j = 1, n
    forall (k = 1 : n)
      t(:, j) = sum(a(:, k) * b(k, j))
    end forall
  end do
  c(:, :) = add(t(:, :), d(:, :))
end program
"""

THREE_STATEMENT_SOURCE = """
program chain
  parameter (n = 16, nprocs = 4)
  real a(n, n), b(n, n), t(n, n), d(n, n), u(n, n), e(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template tmpl(n)
!hpf$ distribute tmpl(block) onto Pr
!hpf$ align a(*, :) with tmpl
!hpf$ align t(*, :) with tmpl
!hpf$ align d(*, :) with tmpl
!hpf$ align u(*, :) with tmpl
!hpf$ align e(*, :) with tmpl
!hpf$ align c(*, :) with tmpl
!hpf$ align b(:, *) with tmpl
  do j = 1, n
    forall (k = 1 : n)
      t(:, j) = sum(a(:, k) * b(k, j))
    end forall
  end do
  u(:, :) = add(t(:, :), d(:, :))
  c(:, :) = multiply(u(:, :), e(:, :))
end program
"""

SINGLE_OPERAND_SOURCE = """
program square
  parameter (n = 16, nprocs = 4)
  real a(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template tmpl(n)
!hpf$ distribute tmpl(block) onto Pr
!hpf$ align a(*, :) with tmpl
!hpf$ align c(*, :) with tmpl
  do j = 1, n
    forall (k = 1 : n)
      c(:, j) = sum(a(:, k) * a(k, j))
    end forall
  end do
end program
"""


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


def uses_row_reduction(compiled):
    return any(unit.node_program.strategy == "row-slab" for unit in units_of(compiled))


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
    if not uses_row_reduction(compiled):
        checks.append(("io_write_requests_per_proc", ledger.write_requests))
    for key, expected in checks:
        if stats[key] != expected:
            raise Failure(
                f"{label}: executed {key}={stats[key]} != ledger {expected}"
            )


def static_matrix():
    for build in ("gaxpy", "elementwise"):
        for n in (16, 23, 24):
            for nprocs in (1, 4):
                for ratio in (0.5, 0.3, 0.17):
                    for strategy in (None, "column", "row"):
                        yield (f"{build} n={n} P={nprocs} r={ratio} s={strategy}",
                               BUILDERS[build](n, nprocs),
                               dict(slab_ratio=ratio, force_strategy=strategy))
    for n in (16, 23, 24):
        for nprocs in (1, 4):
            yield (f"transpose n={n} P={nprocs}",
                   build_transpose_ir(n, nprocs), dict(slab_ratio=0.5))
            for ratio in (0.5, 0.25):
                yield (f"pipeline n={n} P={nprocs} r={ratio}",
                       build_pipeline_ir(n, nprocs), dict(slab_ratio=ratio))
    for name, source in (("single-operand", SINGLE_OPERAND_SOURCE),
                         ("two-statement", TWO_STATEMENT_SOURCE),
                         ("three-statement", THREE_STATEMENT_SOURCE)):
        ir = frontend_to_ir(parse_program(source))
        for ratio in (0.5, 0.25):
            for strategy in (None, "column", "row"):
                yield (f"{name} r={ratio} s={strategy}", ir,
                       dict(slab_ratio=ratio, force_strategy=strategy))


def executed_matrix():
    # Executor constraint: identical local shapes on every rank, so n % P == 0.
    for build in ("gaxpy", "elementwise", "transpose"):
        for nprocs in (1, 4):
            for ratio in (0.5, 0.3):
                yield (f"exec {build} n=24 P={nprocs} r={ratio}",
                       BUILDERS[build](24, nprocs), dict(slab_ratio=ratio))
    yield ("exec gaxpy row n=24 P=4",
           build_gaxpy_ir(24, 4), dict(slab_ratio=0.3, force_strategy="row"))
    for nprocs in (1, 4):
        yield (f"exec pipeline n=24 P={nprocs}",
               build_pipeline_ir(24, nprocs), dict(slab_ratio=0.3))
    for name, source in (("two-statement", TWO_STATEMENT_SOURCE),
                         ("three-statement", THREE_STATEMENT_SOURCE)):
        yield (f"exec {name} r=0.5", frontend_to_ir(parse_program(source)),
               dict(slab_ratio=0.5))


def fused_matrix():
    # Fusion rides on the plan optimizer, so every configuration here takes
    # the memory-budget path.  The three-statement chain has one legal edge
    # (u into c); the two-statement program and the pipeline IR have none
    # (reduction producers refuse to fuse) and must degrade to unfused plans
    # that still satisfy all three charge oracles.
    for name, source in (("two-statement", TWO_STATEMENT_SOURCE),
                         ("three-statement", THREE_STATEMENT_SOURCE)):
        ir = frontend_to_ir(parse_program(source))
        for budget in (8 * 1024, 16 * 1024):
            for fusion in ("auto", "on"):
                yield (f"fused {name} b={budget} fusion={fusion}", ir,
                       dict(memory_budget_bytes=budget, optimizer="greedy",
                            fusion=fusion))
    yield ("fused pipeline n=24 P=4", build_pipeline_ir(24, 4),
           dict(memory_budget_bytes=16 * 1024, optimizer="greedy", fusion="on"))


def fuzz_matrix(count, seed):
    rng = random.Random(seed)
    for index in range(count):
        build = rng.choice(sorted(BUILDERS))
        n = rng.randrange(8, 49)
        nprocs = rng.choice([1, 2, 4])
        ratio = rng.uniform(0.1, 0.9)
        yield (f"fuzz#{index} {build} n={n} P={nprocs} r={ratio:.3f}",
               BUILDERS[build](n, nprocs), dict(slab_ratio=ratio))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fuzz", type=int, default=40,
                        help="number of seeded random configurations")
    parser.add_argument("--seed", type=int, default=1997)
    args = parser.parse_args(argv)

    checked = skipped = 0
    for label, ir, kwargs in static_matrix():
        try:
            compiled = compile_program(ir, **kwargs)
        except CompilationError:
            # legitimate refusals (e.g. transpose cannot be forced to 'row')
            skipped += 1
            continue
        verify_one(label, compiled, execute=False)
        checked += 1
    print(f"static matrix: {checked} plans verified "
          f"(ledger == PlanCost == price), {skipped} non-compilable skipped")

    executed = 0
    for label, ir, kwargs in executed_matrix():
        verify_one(label, compile_program(ir, **kwargs), execute=True)
        executed += 1
    print(f"executed matrix: {executed} plans verified against machine counters")

    fused = 0
    for label, ir, kwargs in fused_matrix():
        verify_one(label, compile_program(ir, **kwargs), execute=True)
        fused += 1
    print(f"fused matrix: {fused} fusion-enabled plans verified against "
          "machine counters")

    fuzzed = 0
    for label, ir, kwargs in fuzz_matrix(args.fuzz, args.seed):
        verify_one(label, compile_program(ir, **kwargs), execute=False)
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
