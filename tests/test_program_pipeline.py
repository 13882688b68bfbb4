"""Whole-program compilation: multi-statement programs on the unified pipeline.

Covers the PR-4 tentpole end to end:

* the multi-statement :class:`~repro.core.ir.ProgramIR` and its dataflow
  validation (forward/cyclic uses, double assignment, undeclared arrays),
* the mini-HPF frontend lowering statement *sequences*,
* :func:`~repro.core.pipeline.compile_whole_program` (shared memory budget,
  summed program-level :class:`~repro.core.cost_model.PlanCost`,
  :class:`~repro.core.codegen.ProgramSchedule` with LAF-reuse annotations),
* the :class:`~repro.runtime.executor.ProgramExecutor` in both modes, with
  the charge-accounting guarantee that an intermediate's I/O is charged
  exactly once (written by its producer, read by its consumer, never
  regenerated), and
* the Session API surface (``compile(source=...)`` → ``run`` → records with
  per-statement cost breakdowns) plus the memory-budget compile cache fix.
"""

import numpy as np
import pytest

from repro.api import Session, WorkloadPoint
from repro.config import ExecutionMode, RunConfig
from repro.exceptions import CompilationError, HPFSemanticError
from repro.core.ir import build_pipeline_ir
from repro.core.pipeline import (
    CompiledWholeProgram,
    compile_program,
    compile_whole_program,
)
from repro.hpf.frontend import frontend_to_ir
from repro.hpf.parser import parse_program
from repro.runtime.executor import ProgramExecutor, program_reference
from repro.runtime.operands import input_operands
from repro.runtime.laf import LocalArrayFile
from repro.runtime.vm import OutOfCoreArray, VirtualMachine
from tests.scenarios import hpf_source


N = 64
NPROCS = 4

TWO_STATEMENT_SOURCE = hpf_source("mm_add", 64, 4)

TRANSPOSE_THEN_MULTIPLY_SOURCE = hpf_source("transpose_mm", 32, 4)


# ---------------------------------------------------------------------------
# IR: statement sequences and dataflow validation
# ---------------------------------------------------------------------------
class TestMultiStatementIR:
    def test_builder_produces_two_statements(self):
        ir = build_pipeline_ir(N, NPROCS)
        assert ir.is_multi_statement()
        assert ir.input_arrays() == ("a", "b", "d")
        assert ir.intermediate_arrays() == ("t",)
        assert ir.output_arrays() == ("c",)
        assert len(ir.loop_nests[0]) == 2 and ir.loop_nests[1] == ()

    def test_statement_accessor_rejects_multi(self):
        ir = build_pipeline_ir(N, NPROCS)
        with pytest.raises(CompilationError, match="has 2 statements"):
            _ = ir.statement
        with pytest.raises(CompilationError, match="has 2 statements"):
            _ = ir.loops

    def test_statement_program_shares_descriptors(self):
        ir = build_pipeline_ir(N, NPROCS)
        sub0 = ir.statement_program(0)
        sub1 = ir.statement_program(1)
        assert sub0.arrays["t"] is ir.arrays["t"]
        assert sub1.arrays["t"] is ir.arrays["t"]
        assert sub0.statement.result.array == "t"
        assert sub1.statement.result.array == "c"

    def test_describe_lists_every_statement(self):
        text = build_pipeline_ir(N, NPROCS).describe()
        assert "sum_{k}" in text and "add(t(:, :), d(:, :))" in text


# ---------------------------------------------------------------------------
# frontend: statement sequences from source text
# ---------------------------------------------------------------------------
class TestMultiStatementFrontend:
    def test_two_statement_source_lowers(self):
        ir = frontend_to_ir(parse_program(TWO_STATEMENT_SOURCE))
        assert len(ir.statements) == 2
        assert ir.intermediate_arrays() == ("t",)

    def test_transpose_then_multiply_lowers(self):
        ir = frontend_to_ir(parse_program(TRANSPOSE_THEN_MULTIPLY_SOURCE))
        assert len(ir.statements) == 2
        assert ir.intermediate_arrays() == ("u",)

    def test_undeclared_array_message(self):
        bad = TWO_STATEMENT_SOURCE.replace(
            "c(:, :) = add(t(:, :), d(:, :))",
            "c(:, :) = add(t(:, :), q(:, :))",
        )
        with pytest.raises(
            HPFSemanticError, match="statement references undeclared array 'q'"
        ):
            frontend_to_ir(parse_program(bad))

    def test_forward_dataflow_message(self):
        bad = TWO_STATEMENT_SOURCE.replace(
            """  do j = 1, n
    forall (k = 1 : n)
      t(:, j) = sum(a(:, k) * b(k, j))
    end forall
  end do
  c(:, :) = add(t(:, :), d(:, :))""",
            """  c(:, :) = add(t(:, :), d(:, :))
  do j = 1, n
    forall (k = 1 : n)
      t(:, j) = sum(a(:, k) * b(k, j))
    end forall
  end do""",
        )
        with pytest.raises(
            CompilationError,
            match="forward dataflow: statement 1 consumes 't' before statement 2",
        ):
            frontend_to_ir(parse_program(bad))

    def test_cyclic_dataflow_message(self):
        bad = TWO_STATEMENT_SOURCE.replace(
            "c(:, :) = add(t(:, :), d(:, :))",
            "c(:, :) = add(c(:, :), d(:, :))",
        )
        with pytest.raises(
            CompilationError, match="cyclic dataflow: statement 2 .* its own result 'c'"
        ):
            frontend_to_ir(parse_program(bad))

    def test_double_assignment_message(self):
        bad = TWO_STATEMENT_SOURCE.replace(
            "c(:, :) = add(t(:, :), d(:, :))",
            "c(:, :) = add(t(:, :), d(:, :))\n  c(:, :) = add(t(:, :), d(:, :))",
        )
        with pytest.raises(
            CompilationError, match="array 'c' is assigned by more than one statement"
        ):
            frontend_to_ir(parse_program(bad))

    def test_non_conformal_slab_message(self):
        ir = frontend_to_ir(parse_program(TWO_STATEMENT_SOURCE))
        with pytest.raises(
            CompilationError,
            match="elementwise/transpose statements stream conformal slabs",
        ):
            compile_program(
                ir,
                slab_elements={"a": 1024, "b": 1024, "t": 1024, "d": 512, "c": 1024},
            )

    def test_loop_nest_still_requires_single_statement(self):
        bad = TWO_STATEMENT_SOURCE.replace(
            "      t(:, j) = sum(a(:, k) * b(k, j))\n",
            "      t(:, j) = sum(a(:, k) * b(k, j))\n"
            "      t(:, j) = sum(a(:, k) * b(k, j))\n",
        )
        with pytest.raises(HPFSemanticError, match="perfect loop nest"):
            frontend_to_ir(parse_program(bad))


# ---------------------------------------------------------------------------
# compilation: shared budget, summed cost, schedule
# ---------------------------------------------------------------------------
class TestWholeProgramCompilation:
    def test_compile_program_dispatches_to_whole_program(self):
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        assert isinstance(compiled, CompiledWholeProgram)
        assert len(compiled.statements) == 2

    def test_summed_cost_equals_statement_costs(self):
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        parts = compiled.statement_costs()
        assert compiled.cost.io_time == pytest.approx(sum(p.io_time for p in parts))
        assert compiled.cost.compute_time == pytest.approx(
            sum(p.compute_time for p in parts)
        )
        assert compiled.cost.comm_time == pytest.approx(sum(p.comm_time for p in parts))
        assert compiled.cost.flops == pytest.approx(sum(p.flops for p in parts))

    def test_intermediate_charged_once_in_plan(self):
        """The acceptance criterion: t is written once and read once, ever."""
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        t_local = max(
            compiled.program.arrays["t"].local_size(r) for r in range(NPROCS)
        )
        t_cost = compiled.cost.arrays["t"]
        assert t_cost.write_elements == pytest.approx(t_local)  # one producer pass
        assert t_cost.fetch_elements == pytest.approx(t_local)  # one consumer pass

    def test_memory_budget_is_split_between_statements(self):
        ir = build_pipeline_ir(N, NPROCS)
        whole = compile_whole_program(ir, memory_budget_bytes=64 * 1024)
        # Each statement was compiled under half the budget: its slab
        # allocation must fit in 32 KiB of float32 elements.
        for compiled in whole.statements:
            allocated = sum(compiled.plan.allocation.values())
            assert allocated * 4 <= 32 * 1024

    def test_slab_spec_is_exclusive(self):
        ir = build_pipeline_ir(N, NPROCS)
        with pytest.raises(CompilationError, match="exactly one of"):
            compile_whole_program(ir, slab_ratio=0.25, memory_budget_bytes=1 << 20)
        with pytest.raises(CompilationError, match="exactly one of"):
            compile_whole_program(ir)

    def test_schedule_annotates_laf_reuse(self):
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        schedule = compiled.schedule
        assert schedule.intermediates == ("t",)
        assert schedule.step(0).fresh_inputs == ("a", "b")
        assert schedule.step(1).laf_inputs == ("t",)
        assert schedule.step(1).fresh_inputs == ("d",)
        text = schedule.pretty()
        assert "reuse LAF written by an earlier step" in text

    def test_schedule_totals_sum_statements(self):
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        totals = compiled.schedule.operation_totals()
        per_stmt = [s.node_program.operation_totals() for s in compiled.statements]
        assert totals["flops"] == pytest.approx(sum(t["flops"] for t in per_stmt))
        assert totals["read_elements:t"] == pytest.approx(
            per_stmt[1]["read_elements:t"]
        )


# ---------------------------------------------------------------------------
# execution: both modes, LAF reuse, charge accounting
# ---------------------------------------------------------------------------
class TestProgramExecution:
    def test_execute_verifies_against_oracle(self, tmp_path):
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        dense = input_operands(compiled.program, 7)
        with VirtualMachine(NPROCS, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
            result = ProgramExecutor(compiled).execute(vm, dense)
            stored = {name: vm.to_dense(name) for name in ("t", "c")}
        assert result.verified is True
        reference = program_reference(compiled.program, dense)
        np.testing.assert_allclose(stored["c"], reference["c"], rtol=1e-4, atol=1e-3)
        np.testing.assert_allclose(stored["t"], reference["t"], rtol=1e-4, atol=1e-3)

    def test_estimate_matches_execute_charges(self, tmp_path):
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        estimate = ProgramExecutor(compiled).estimate()
        dense = input_operands(compiled.program, 7)
        with VirtualMachine(NPROCS, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
            execute = ProgramExecutor(compiled).execute(vm, dense)
        assert estimate.io_statistics == execute.io_statistics
        assert estimate.simulated_seconds == pytest.approx(execute.simulated_seconds)

    def test_intermediate_io_charged_exactly_once(self, tmp_path):
        """Charge accounting for the executed run, per statement.

        Statement 1 writes ``t`` (and only ``t``); statement 2 reads exactly
        one pass over ``t`` and ``d`` and writes ``c`` — nothing is
        regenerated, so the byte counters match the local array sizes
        exactly.
        """
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        arrays = compiled.program.arrays
        itemsize = arrays["t"].itemsize
        local_bytes = {
            name: max(arrays[name].local_size(r) for r in range(NPROCS)) * itemsize
            for name in arrays
        }
        dense = input_operands(compiled.program, 7)
        with VirtualMachine(NPROCS, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
            result = ProgramExecutor(compiled).execute(vm, dense)
        stmt1, stmt2 = result.statements
        # producer: one write pass over t, nothing else written
        assert stmt1["bytes_written_per_proc"] == pytest.approx(local_bytes["t"])
        # consumer: exactly one read pass over t and d — t is not regenerated
        assert stmt2["bytes_read_per_proc"] == pytest.approx(
            local_bytes["t"] + local_bytes["d"]
        )
        assert stmt2["bytes_written_per_proc"] == pytest.approx(local_bytes["c"])

    def test_transpose_then_multiply_executes(self, tmp_path):
        ir = frontend_to_ir(parse_program(TRANSPOSE_THEN_MULTIPLY_SOURCE))
        compiled = compile_program(ir, slab_ratio=0.5)
        dense = input_operands(compiled.program, 7)
        with VirtualMachine(4, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
            result = ProgramExecutor(compiled).execute(vm, dense)
            c = vm.to_dense("c")
        assert result.verified is True
        reference = program_reference(compiled.program, dense)
        np.testing.assert_allclose(c, reference["c"], rtol=1e-4, atol=1e-3)

    def test_repeated_runs_on_one_vm_still_raise(self, tmp_path):
        """Array reuse is scoped to ProgramExecutor: independent runs on one
        VM keep the duplicate-array guard instead of reading stale data."""
        from repro.core.ir import build_elementwise_ir
        from repro.exceptions import RuntimeExecutionError
        from repro.runtime.executor import NodeProgramExecutor

        compiled = compile_program(build_elementwise_ir(16, 2), slab_ratio=0.5)
        dense = {
            "a": np.full((16, 16), 1.0, dtype="float32"),
            "b": np.full((16, 16), 1.0, dtype="float32"),
        }
        with VirtualMachine(2, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
            NodeProgramExecutor(compiled).execute(vm, dense, verify=False)
            with pytest.raises(RuntimeExecutionError, match="already exists in this VM"):
                NodeProgramExecutor(compiled).execute(vm, dense, verify=False)

    def test_unverified_run_gathers_nothing(self, tmp_path, monkeypatch):
        """No result is read back: the per-statement checksum audit is the
        only host pass over a stored result of an unverified run."""
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        dense = input_operands(compiled.program, 7)
        reads = []
        for owner, method in ((VirtualMachine, "to_dense"),
                              (OutOfCoreArray, "column_reader"),
                              (LocalArrayFile, "column_view")):
            monkeypatch.setattr(owner, method, lambda *args, _m=method: reads.append(_m))
        with VirtualMachine(NPROCS, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
            result = ProgramExecutor(compiled).execute(vm, dense, verify=False)
        assert result.verified is None
        assert reads == []

    def test_results_are_read_on_demand(self, tmp_path):
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        dense = input_operands(compiled.program, 7)
        with VirtualMachine(NPROCS, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
            ProgramExecutor(compiled).execute(vm, dense, verify=False)
            stored = {name: vm.to_dense(name) for name in ("t", "c")}
        reference = program_reference(compiled.program, dense)
        for name, array in stored.items():
            np.testing.assert_allclose(array, reference[name], rtol=1e-4, atol=1e-3)

    def test_mixed_strategy_cost_label(self):
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        strategies = {c.plan.strategy for c in compiled.statements}
        if len(strategies) > 1:
            assert compiled.cost.strategy is None
            assert "plan [mixed]" in compiled.cost.describe()
        else:  # pragma: no cover - depends on the cost model's choice
            assert compiled.cost.strategy in strategies

    def test_execute_requires_program_inputs(self, tmp_path):
        compiled = compile_program(build_pipeline_ir(N, NPROCS), slab_ratio=0.25)
        from repro.exceptions import RuntimeExecutionError

        with VirtualMachine(NPROCS, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
            with pytest.raises(RuntimeExecutionError, match="missing \\['b', 'd'\\]"):
                ProgramExecutor(compiled).execute(
                    vm, {"a": np.zeros((N, N), dtype="float32")}
                )


# ---------------------------------------------------------------------------
# Session API: source programs end to end, per-statement records
# ---------------------------------------------------------------------------
class TestSessionWholeProgram:
    def test_compile_estimate_execute_roundtrip(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        compiled = session.compile(source=TWO_STATEMENT_SOURCE, slab_ratio=0.25)
        assert compiled.point.n == N and compiled.point.nprocs == NPROCS

        estimate = session.estimate(compiled)
        assert estimate.version == "program"
        assert len(estimate.statements) == 2
        assert estimate.simulated_seconds == pytest.approx(
            sum(s["seconds"] for s in estimate.statements)
        )

        record = session.execute(compiled)
        assert record.verified is True
        assert len(record.statements) == 2
        assert (record.io_requests_per_proc, record.io_read_bytes_per_proc,
                record.io_write_bytes_per_proc) == (
            estimate.io_requests_per_proc, estimate.io_read_bytes_per_proc,
            estimate.io_write_bytes_per_proc,
        )

    def test_sweep_mixes_whole_programs_and_kernels(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        points = [
            WorkloadPoint(
                "hpf", slab_ratio=0.25, options={"source": TWO_STATEMENT_SOURCE}
            ),
            WorkloadPoint("gaxpy", n=N, nprocs=NPROCS, version="row", slab_ratio=0.25),
        ]
        records = session.sweep(points, mode=ExecutionMode.EXECUTE)
        assert [r.workload for r in records] == ["hpf", "gaxpy"]
        assert all(r.verified for r in records)

    def test_record_to_dict_carries_statements(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        record = session.estimate(
            WorkloadPoint("hpf", slab_ratio=0.25, options={"source": TWO_STATEMENT_SOURCE})
        )
        flat = record.to_dict()
        assert len(flat["statements"]) == 2
        assert all("io" in s and "seconds" in s for s in flat["statements"])

    def test_memory_budget_source_compiles(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        record = session.estimate(
            WorkloadPoint(
                "hpf",
                options={"source": TWO_STATEMENT_SOURCE,
                         "memory_budget_bytes": 128 * 1024},
            )
        )
        assert record.simulated_seconds > 0


# ---------------------------------------------------------------------------
# compile cache: memory-budget points are cacheable (satellite fix)
# ---------------------------------------------------------------------------
class TestMemoryBudgetCompileCache:
    def test_budget_compiles_hit_the_cache(self):
        session = Session()
        first = session.compile(source=TWO_STATEMENT_SOURCE,
                                options={"memory_budget_bytes": 96 * 1024})
        second = session.compile(source=TWO_STATEMENT_SOURCE,
                                 options={"memory_budget_bytes": 96 * 1024})
        assert second is first
        assert session.cache_info()["hits"] == 1

    def test_policies_are_hashable_and_value_compared(self):
        from repro.core.memory_alloc import (
            EqualAllocation,
            ProportionalAllocation,
            SearchAllocation,
        )

        assert hash(ProportionalAllocation()) == hash(ProportionalAllocation())
        assert ProportionalAllocation() == ProportionalAllocation()
        assert hash(EqualAllocation()) == hash(EqualAllocation())
        assert SearchAllocation(fractions=5) != SearchAllocation(fractions=9)

    def test_distinct_budgets_do_not_collide(self):
        session = Session()
        a = session.compile(source=TWO_STATEMENT_SOURCE,
                            options={"memory_budget_bytes": 96 * 1024})
        b = session.compile(source=TWO_STATEMENT_SOURCE,
                            options={"memory_budget_bytes": 192 * 1024})
        assert a is not b
        assert a.program.memory_budget_bytes != b.program.memory_budget_bytes
