"""Differential matrix for the static plan verifier.

Three oracles must agree on every compiled plan:

1. the **symbolic ledger** the verifier derives by walking the node program,
2. the cost model's **PlanCost**, and
3. the **executed charges** the machine counters accumulate (``ESTIMATE``
   and ``EXECUTE`` charge identically by construction, so the cheap mode
   suffices here).

Every workload builder x strategy x processor count x slab granularity —
even and uneven slabs both — must verify clean with exact ledger equality;
hypothesis widens the sweep.  The file also pins the three defects the
verifier surfaced while being brought up (see ``TestSurfacedDefects``) and
the ``Session`` / planner integration of the ``check=`` modes.

Known executed-granularity deviation: the row-strategy reduction executor
flushes the result in one request per *streamed* row slab (batching the
plan's per-column flush into row strips), so its write **request** count
differs from the plan while the bytes agree exactly — see
``src/repro/runtime/README.md``.  Executed-equality assertions therefore
always compare bytes, and compare request counts wherever the executor
follows the plan's slab granularity.  The single-operand reduction executes
a broadcast schedule whose charges deliberately diverge from the paper's
re-read model (its docstring explains why), so it is excluded from
executed-equality entirely.
"""

import dataclasses
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session, WorkloadPoint
from repro.check import CheckFinding, CheckReport, Severity, check_compiled
from repro.config import ExecutionMode, RunConfig
from repro.core.analysis import analyze_program
from repro.core.ir import (
    build_elementwise_ir,
    build_gaxpy_ir,
    build_pipeline_ir,
    build_transpose_ir,
)
from repro.core.node_program import LoopOp
from repro.core.pipeline import compile_program
from repro.exceptions import CompilationError, PlanVerificationError
from repro.hpf.frontend import frontend_to_ir
from repro.hpf.parser import parse_program
from repro.runtime import NodeProgramExecutor, VirtualMachine
from repro.runtime.executor import ProgramExecutor

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

BUILDERS = {
    "gaxpy": build_gaxpy_ir,
    "elementwise": build_elementwise_ir,
    "transpose": build_transpose_ir,
    "pipeline": build_pipeline_ir,
}


def compile_and_check(build, n, nprocs, **kwargs):
    compiled = compile_program(BUILDERS[build](n, nprocs), **kwargs)
    report = check_compiled(compiled)
    assert report.ok, report.describe()
    return compiled, report


# ---------------------------------------------------------------------------
# the static matrix: ledger == PlanCost on every compiled plan
# ---------------------------------------------------------------------------
class TestStaticMatrix:
    # n = 16 divides evenly into 4 x 4 local columns; n = 23 leaves uneven
    # ranks *and* a partial last slab, the case nominal counting overcharges.
    @pytest.mark.parametrize("n", [16, 23])
    @pytest.mark.parametrize("nprocs", [1, 4])
    @pytest.mark.parametrize("strategy", [None, "column", "row"])
    @pytest.mark.parametrize("build", ["gaxpy", "elementwise"])
    def test_single_statement_verifies_exactly(self, build, n, nprocs, strategy):
        compiled, report = compile_and_check(
            build, n, nprocs, slab_ratio=0.3, force_strategy=strategy
        )
        assert report.ledger.compare_plan_cost(compiled.plan.cost) == []

    @pytest.mark.parametrize("n", [16, 23])
    @pytest.mark.parametrize("nprocs", [1, 4])
    def test_transpose_verifies_exactly(self, n, nprocs):
        compiled, report = compile_and_check("transpose", n, nprocs, slab_ratio=0.5)
        assert report.ledger.compare_plan_cost(compiled.plan.cost) == []

    @pytest.mark.parametrize("n", [16, 23])
    @pytest.mark.parametrize("nprocs", [1, 4])
    @pytest.mark.parametrize("ratio", [0.5, 0.17])
    def test_whole_program_verifies_exactly(self, n, nprocs, ratio):
        compiled, report = compile_and_check("pipeline", n, nprocs, slab_ratio=ratio)
        # per-statement drift would already fail report.ok; this pins the
        # summed-ledger-vs-combined-cost leg explicitly
        assert report.ledger.compare_plan_cost(compiled.cost) == []
        assert report.checked_statements == len(compiled.statements)

    @pytest.mark.parametrize("ratio", [0.5, 0.25])
    @pytest.mark.parametrize("strategy", [None, "column", "row"])
    def test_single_operand_program_verifies(self, ratio, strategy):
        ir = frontend_to_ir(parse_program(SINGLE_OPERAND_SOURCE))
        compiled = compile_program(ir, slab_ratio=ratio, force_strategy=strategy)
        report = check_compiled(compiled)
        assert report.ok, report.describe()

    @settings(max_examples=25, deadline=None)
    @given(
        build=st.sampled_from(sorted(BUILDERS)),
        n=st.integers(min_value=8, max_value=48),
        nprocs=st.sampled_from([1, 2, 4]),
        ratio=st.floats(min_value=0.1, max_value=0.9),
    )
    def test_fuzzed_plans_verify_clean(self, build, n, nprocs, ratio):
        compiled = compile_program(BUILDERS[build](n, nprocs), slab_ratio=ratio)
        report = check_compiled(compiled)
        assert report.ok, report.describe()


# ---------------------------------------------------------------------------
# executed charges: the machine counters agree with the symbolic walk
# ---------------------------------------------------------------------------
def executed_statistics(compiled, scratch):
    config = RunConfig(scratch_dir=scratch, mode=ExecutionMode.ESTIMATE)
    with VirtualMachine(compiled.nprocs, compiled.params, config) as vm:
        if hasattr(compiled, "statements"):
            ProgramExecutor(compiled).run(vm, None, verify=False)
        else:
            NodeProgramExecutor(compiled).run(vm, None, verify=False)
        return vm.io_statistics()


class TestExecutedCharges:
    # exact_requests=False marks plans containing a row-strategy reduction,
    # whose executor batches the result flush (bytes still exact).
    CASES = [
        ("gaxpy", 24, 4, {"force_strategy": "column"}, True),
        ("gaxpy", 24, 4, {"force_strategy": "row"}, False),
        ("gaxpy", 16, 1, {}, True),
        ("elementwise", 24, 4, {}, True),
        ("transpose", 24, 4, {}, True),
        ("pipeline", 24, 4, {}, False),
    ]

    @pytest.mark.parametrize("build,n,nprocs,kwargs,exact_requests", CASES)
    def test_ledger_matches_machine_counters(
        self, tmp_path, build, n, nprocs, kwargs, exact_requests
    ):
        compiled, report = compile_and_check(
            build, n, nprocs, slab_ratio=0.3, **kwargs
        )
        ledger = report.ledger
        stats = executed_statistics(compiled, tmp_path)
        assert stats["bytes_read_per_proc"] == ledger.read_bytes
        assert stats["bytes_written_per_proc"] == ledger.write_bytes
        assert stats["io_read_requests_per_proc"] == ledger.read_requests
        if exact_requests:
            assert stats["io_write_requests_per_proc"] == ledger.write_requests
            assert stats["io_requests_per_proc"] == ledger.io_requests


# ---------------------------------------------------------------------------
# defects the verifier surfaced in the existing pipeline, pinned forever
# ---------------------------------------------------------------------------
class TestSurfacedDefects:
    def test_transpose_exchange_payload_telescopes_on_uneven_slabs(self):
        # estimate_transpose used to charge a full nominal slab per exchange
        # pair; with 17 columns over 4 ranks the last slab is partial and the
        # total exchanged volume must telescope to exactly the local size.
        compiled = compile_program(build_transpose_ir(17, 4), slab_ratio=0.5)
        cost = compiled.plan.cost
        rows, cols = compiled.plan.entries["src"].local_shape
        assert cost.collective_count * cost.collective_elements_each == rows * cols
        assert check_compiled(compiled).ok

    def test_single_operand_analysis_keeps_streamed_role(self):
        # ``c(:, j) = sum(a(:, k) * a(k, j))`` references `a` in both roles;
        # the coefficient-role view used to overwrite the streamed-role entry
        # in the access table, hiding the distributed reduce dimension and
        # turning off the global sum the schedule requires.
        ir = frontend_to_ir(parse_program(SINGLE_OPERAND_SOURCE))
        analysis = analyze_program(ir)
        assert analysis.needs_global_sum is True

    def test_single_operand_column_walks_all_result_columns(self):
        # The two-operand column nest iterates the coefficient's *local*
        # columns; with one operand those are only n/P of the result, so the
        # generated program used to undercharge I/O, flops and collectives by
        # a factor of P.  The single-operand schedule must stage the local
        # part once and walk all n result columns.
        ir = frontend_to_ir(parse_program(SINGLE_OPERAND_SOURCE))
        compiled = compile_program(ir, slab_ratio=0.5, force_strategy="column")
        report = check_compiled(compiled)
        assert report.ok, report.describe()
        stage, per_column, flush = compiled.node_program.ops
        assert isinstance(per_column, LoopOp)
        assert per_column.lines_of == "" and per_column.slabs_of == ""
        assert per_column.trip_count == 16  # all n columns, not n / P

    def test_repeated_elementwise_operand_is_charged_per_reference(self):
        # ``c = a + a`` generates two slab reads of ``a`` per iteration; the
        # cost model used to keep one row per array *name*, so the second
        # reference overwrote the first and the plan was undercharged
        # (a ledger-drift finding).  Rows now accumulate per reference, as
        # they always did for fused pairs.
        source = SINGLE_OPERAND_SOURCE.replace(
            "  do j = 1, n\n    forall (k = 1 : n)\n"
            "      c(:, j) = sum(a(:, k) * a(k, j))\n    end forall\n  end do\n",
            "  c(:, :) = add(a(:, :), a(:, :))\n",
        )
        compiled = compile_program(frontend_to_ir(parse_program(source)), slab_ratio=0.5)
        report = check_compiled(compiled)
        assert report.ok, report.describe()
        entry = compiled.plan.entries["a"]
        rows, cols = entry.local_shape
        assert compiled.plan.cost.arrays["a"].fetch_requests == 2 * entry.num_slabs
        assert compiled.plan.cost.arrays["a"].fetch_elements == 2 * rows * cols


# ---------------------------------------------------------------------------
# Session integration: check modes, report attachment, run records
# ---------------------------------------------------------------------------
def hpf_point(**kwargs):
    kwargs.setdefault("slab_ratio", 0.5)
    return WorkloadPoint(
        "hpf", options={"source": SINGLE_OPERAND_SOURCE}, **kwargs
    )


def failing_report():
    finding = CheckFinding(
        code="ledger-drift",
        severity=Severity.ERROR,
        message="injected for testing",
        statement="square",
    )
    return CheckReport(findings=(finding,), checked_statements=1)


class TestSessionCheckModes:
    def test_default_warn_attaches_clean_report(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        compiled = session.compile(hpf_point())
        assert compiled.check is not None
        assert compiled.check.ok
        assert compiled.program.check is compiled.check

    def test_run_record_carries_check_summary(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        record = session.run(hpf_point(), mode=ExecutionMode.ESTIMATE)
        assert record.plan["check"]["ok"] is True
        assert record.plan["check"]["errors"] == 0

    def test_check_off_skips_verification(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path), check="off")
        compiled = session.compile(hpf_point())
        assert compiled.check is None

    def test_error_mode_raises_on_failing_plan(self, tmp_path, monkeypatch):
        import repro.check

        monkeypatch.setattr(
            repro.check, "check_compiled", lambda compiled: failing_report()
        )
        session = Session(config=RunConfig(scratch_dir=tmp_path), check="error")
        with pytest.raises(PlanVerificationError) as excinfo:
            session.compile(hpf_point())
        assert excinfo.value.report.codes() == ("ledger-drift",)

    def test_warn_mode_warns_and_keeps_the_report(self, tmp_path, monkeypatch):
        import repro.check

        monkeypatch.setattr(
            repro.check, "check_compiled", lambda compiled: failing_report()
        )
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        with pytest.warns(UserWarning, match="FAILED verification"):
            compiled = session.compile(hpf_point())
        assert not compiled.check.ok

    def test_verification_runs_once_per_cached_plan(self, tmp_path, monkeypatch):
        import repro.check

        calls = []
        real = repro.check.check_compiled

        def counting(compiled):
            calls.append(compiled)
            return real(compiled)

        monkeypatch.setattr(repro.check, "check_compiled", counting)
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        first = session.compile(hpf_point())
        second = session.compile(hpf_point())
        assert len(calls) == 1
        assert second.check is first.check

    def test_invalid_mode_is_rejected(self, tmp_path):
        from repro.exceptions import WorkloadError

        with pytest.raises(WorkloadError):
            Session(config=RunConfig(scratch_dir=tmp_path), check="loudly")


# ---------------------------------------------------------------------------
# planner integration: verified search stays no worse than the even split
# ---------------------------------------------------------------------------
class TestPlannerUnderCheck:
    BUDGET = 24 * 1024

    def test_verified_search_is_no_worse_than_even_split(self):
        ir = build_pipeline_ir(16, 4)
        even = compile_program(
            build_pipeline_ir(16, 4),
            memory_budget_bytes=self.BUDGET,
            optimizer="none",
        )
        checked = compile_program(
            ir,
            memory_budget_bytes=self.BUDGET,
            optimizer="greedy",
            check="error",
        )
        assert checked.cost.total_time <= even.cost.total_time
        decision = checked.planner
        assert decision is not None
        assert decision.predicted_total_time <= decision.even_total_time
        assert checked.check is not None and checked.check.ok

    def test_checked_and_unchecked_search_agree(self):
        # Verification must only *reject* broken candidates, never change the
        # ranking of healthy ones — the winning plan is identical.
        plain = compile_program(
            build_pipeline_ir(16, 4),
            memory_budget_bytes=self.BUDGET,
            optimizer="greedy",
        )
        checked = compile_program(
            build_pipeline_ir(16, 4),
            memory_budget_bytes=self.BUDGET,
            optimizer="greedy",
            check="error",
        )
        assert checked.cost.total_time == plain.cost.total_time
        assert checked.cost.io_bytes == plain.cost.io_bytes

    def test_compile_program_error_mode_raises_on_failing_plan(self, monkeypatch):
        # End-to-end: a cost-model/codegen divergence must surface as
        # PlanVerificationError from compile_program, not a silent plan.
        import repro.check

        monkeypatch.setattr(
            repro.check, "check_compiled", lambda compiled: failing_report()
        )
        with pytest.raises(PlanVerificationError) as excinfo:
            compile_program(build_gaxpy_ir(16, 4), slab_ratio=0.5, check="error")
        assert not excinfo.value.report.ok

    def test_compile_program_warn_mode_warns_and_attaches(self, monkeypatch):
        import repro.check

        monkeypatch.setattr(
            repro.check, "check_compiled", lambda compiled: failing_report()
        )
        with pytest.warns(UserWarning, match="FAILED verification"):
            compiled = compile_program(
                build_gaxpy_ir(16, 4), slab_ratio=0.5, check="warn"
            )
        assert compiled.check is not None and not compiled.check.ok

    def test_planner_rejects_unverifiable_candidates(self, monkeypatch):
        # Force every candidate to fail verification: the search must surface
        # a compilation error rather than return an unverified plan.
        import repro.check

        monkeypatch.setattr(
            repro.check, "check_compiled", lambda compiled: failing_report()
        )
        with pytest.raises(CompilationError):
            compile_program(
                build_pipeline_ir(16, 4),
                memory_budget_bytes=self.BUDGET,
                optimizer="greedy",
                check="error",
            )

    def test_single_statement_search_rejects_unverifiable_candidate(self, monkeypatch):
        # The single-statement search used to run unchecked and verify only
        # its winner, so one unverifiable candidate that happened to win
        # raised instead of losing to a healthy one.
        import repro.check

        winner = compile_program(
            build_gaxpy_ir(64, 4), memory_budget_bytes=2048, optimizer="greedy"
        )
        assert winner.planner.policies == ("search",)  # not the even baseline

        real_check = repro.check.check_compiled
        monkeypatch.setattr(
            repro.check,
            "check_compiled",
            lambda compiled: (
                failing_report()
                if compiled.plan.allocation == winner.plan.allocation
                else real_check(compiled)
            ),
        )
        checked = compile_program(
            build_gaxpy_ir(64, 4), memory_budget_bytes=2048, optimizer="greedy", check="error"
        )
        assert checked.check is not None and checked.check.ok
        assert checked.planner.policies != ("search",)
        assert checked.plan.allocation != winner.plan.allocation
        assert checked.planner.predicted_total_time <= checked.planner.even_total_time
