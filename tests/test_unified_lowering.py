"""Tests for the unified lowering pipeline.

Every workload — gaxpy, transpose, elementwise, parsed HPF programs — lowers
through one ``ProgramIR → strip-mine → cost model → reorganize → NodeProgram
→ executor`` pipeline in both ESTIMATE and EXECUTE modes.  These tests pin

* that every built-in compiles to a real node program,
* that the unified path charges *bit-identical* statistics to the engines
  called directly on a program compiled from hand-built array descriptors,
* that single-operand HPF programs (``c = a @ a``) execute with verified
  numerics.
"""

import numpy as np
import pytest

from repro.api import Lowering, Session, Workload, WorkloadPoint, register_workload, unregister_workload
from repro.config import ExecutionMode, RunConfig
from repro.core.ir import (
    ArrayRef,
    ElementwiseStatement,
    FullRange,
    ProgramIR,
    TransposeStatement,
    build_elementwise_ir,
    build_gaxpy_ir,
    build_transpose_ir,
)
from repro.core.pipeline import compile_program
from repro.exceptions import CompilationError, RuntimeExecutionError
from repro.hpf import Alignment, ArrayDescriptor, ProcessorGrid, Template
from repro.runtime import NodeProgramExecutor, VirtualMachine
from repro.runtime.executor import (
    run_elementwise_plan,
    run_reduction_single_operand,
    run_transpose_plan,
)
from tests.scenarios import hpf_source

SINGLE_OPERAND_SOURCE = hpf_source("square", 64, 4)


def make_session(tmp_path, **config_kwargs):
    return Session(config=RunConfig(scratch_dir=tmp_path, **config_kwargs))


def column_block_descriptor(n, p, name="x", dtype=np.float32):
    grid = ProcessorGrid("Pr", p)
    template = Template("d", n, grid, ["block"])
    return ArrayDescriptor(name, (n, n), Alignment(template, ["*", ":"]), dtype=dtype)


# ---------------------------------------------------------------------------
# every workload compiles to a real node program
# ---------------------------------------------------------------------------
class TestEveryWorkloadLowers:
    @pytest.mark.parametrize("point", [
        WorkloadPoint("gaxpy", n=32, nprocs=4, version="row", slab_ratio=0.5),
        WorkloadPoint("transpose", n=32, nprocs=4),
        WorkloadPoint("elementwise", n=32, nprocs=4, version="row"),
    ])
    def test_compiles_through_the_pipeline(self, point):
        compiled = Session().compile(point)
        program = compiled.program
        assert program is not None
        assert program.node_program.ops  # a real generated program
        assert program.plan.cost.total_time > 0
        assert program.node_program.pretty().startswith("!")

    def test_unequal_per_array_slabs_rejected(self):
        """The fused schedule needs conformal slabs; unequal sizes would make
        the charged statistics contradict the per-array plan entries."""
        with pytest.raises(CompilationError, match="conformal"):
            compile_program(
                build_elementwise_ir(64, 4),
                slab_elements={"a": 512, "b": 2048, "c": 1024},
            )
        with pytest.raises(CompilationError, match="conformal"):
            compile_program(
                build_transpose_ir(64, 4), slab_elements={"src": 64, "dst": 128}
            )

    def test_elementwise_node_program_matches_cost_model(self):
        compiled = compile_program(
            build_elementwise_ir(64, 4, op="multiply"),
            slab_elements={"a": 128, "b": 128, "c": 128},
        )
        totals = compiled.node_program.operation_totals()
        cost = compiled.plan.cost
        assert totals["read_requests:a"] == cost.arrays["a"].fetch_requests
        assert totals["read_elements:a"] == cost.arrays["a"].fetch_elements
        assert totals["write_requests:c"] == cost.arrays["c"].write_requests
        assert totals["flops"] == cost.flops

    def test_transpose_node_program_matches_cost_model(self):
        compiled = compile_program(build_transpose_ir(64, 4), slab_ratio=0.25)
        totals = compiled.node_program.operation_totals()
        cost = compiled.plan.cost
        assert totals["read_requests:src"] == cost.arrays["src"].fetch_requests
        assert totals["write_requests:dst"] == cost.arrays["dst"].write_requests
        assert totals["all_to_alls"] == cost.arrays["src"].fetch_requests
        assert "all-to-all" in compiled.node_program.pretty()

    def test_new_statement_validation(self):
        ref = ArrayRef("a", [FullRange(), FullRange()])
        other = ArrayRef("b", [FullRange(), FullRange()])
        with pytest.raises(CompilationError, match="operator"):
            ElementwiseStatement(result=ref, operands=(other, other), op="divide")
        with pytest.raises(CompilationError, match="two operands"):
            ElementwiseStatement(result=ref, operands=(other,))
        with pytest.raises(CompilationError, match="distinct"):
            TransposeStatement(result=ref, operand=ref)
        with pytest.raises(CompilationError, match="square"):
            grid = ProcessorGrid("Pr", 2)
            template = Template("d", 8, grid, ["block"])
            arrays = {
                "src": ArrayDescriptor("src", (4, 8), Alignment(template, ["*", ":"])),
                "dst": ArrayDescriptor("dst", (4, 8), Alignment(template, ["*", ":"])),
            }
            from repro.core.ir import ProgramIR
            compile_program(
                ProgramIR(
                    name="bad",
                    arrays=arrays,
                    loops=(),
                    statement=TransposeStatement(
                        result=ArrayRef("dst", [FullRange(), FullRange()]),
                        operand=ArrayRef("src", [FullRange(), FullRange()]),
                    ),
                ),
                slab_ratio=0.5,
            )


def compile_from_descriptors(descriptors, statement, slab_elements):
    """A program over hand-built descriptors, every array in slabs of ``slab_elements``."""
    arrays = {desc.name: desc for desc in descriptors}
    return compile_program(
        ProgramIR(name="direct", arrays=arrays, loops=(), statement=statement),
        slab_elements=dict.fromkeys(arrays, slab_elements),
    )


# ---------------------------------------------------------------------------
# the unified path charges bit-identical statistics to the engines called
# directly on a program compiled from hand-built descriptors
# ---------------------------------------------------------------------------
class TestChargeParityWithKernels:
    @pytest.mark.parametrize("mode", [ExecutionMode.ESTIMATE, ExecutionMode.EXECUTE])
    def test_elementwise(self, tmp_path, mode):
        n, p, slab = 32, 4, 64
        record = make_session(tmp_path / "s").run(
            WorkloadPoint("elementwise", n=n, nprocs=p,
                          options={"op": "multiply", "slab_elements": slab}),
            mode=mode,
        )
        descriptors = [column_block_descriptor(n, p, name=name) for name in ("ea", "eb", "ec")]
        statement = ElementwiseStatement(
            ArrayRef("ec", [FullRange()] * 2),
            [ArrayRef("ea", [FullRange()] * 2), ArrayRef("eb", [FullRange()] * 2)],
            op="multiply",
        )
        compiled = compile_from_descriptors(descriptors, statement, slab)
        rng = np.random.default_rng(1994)
        a = rng.standard_normal((n, n)).astype(np.float32)
        b = rng.standard_normal((n, n)).astype(np.float32)
        dense = {"ea": a, "eb": b} if mode is ExecutionMode.EXECUTE else None
        with VirtualMachine(p, None, RunConfig(scratch_dir=tmp_path / "k", mode=mode)) as vm:
            kernel = run_elementwise_plan(vm, compiled, dense)
        assert record.simulated_seconds == kernel.simulated_seconds
        assert record.io_requests_per_proc == kernel.io_statistics["io_requests_per_proc"]
        assert record.io_read_bytes_per_proc == kernel.io_statistics["bytes_read_per_proc"]
        assert record.io_write_bytes_per_proc == kernel.io_statistics["bytes_written_per_proc"]

    @pytest.mark.parametrize("mode", [ExecutionMode.ESTIMATE, ExecutionMode.EXECUTE])
    def test_transpose(self, tmp_path, mode):
        n, p, cols = 32, 4, 4
        record = make_session(tmp_path / "s").run(
            WorkloadPoint("transpose", n=n, nprocs=p, options={"cols_per_slab": cols}),
            mode=mode,
        )
        src, dst = column_block_descriptor(n, p, name="ts"), column_block_descriptor(n, p, name="td")
        statement = TransposeStatement(ArrayRef("td", [FullRange()] * 2),
                                       ArrayRef("ts", [FullRange()] * 2))
        compiled = compile_from_descriptors((src, dst), statement, cols * n)
        assert compiled.plan.entry("ts").lines_per_slab == cols
        rng = np.random.default_rng(1994)
        dense = ({"ts": rng.standard_normal((n, n)).astype(np.float32)}
                 if mode is ExecutionMode.EXECUTE else None)
        with VirtualMachine(p, None, RunConfig(scratch_dir=tmp_path / "k", mode=mode)) as vm:
            kernel = run_transpose_plan(vm, compiled, dense)
        assert record.simulated_seconds == kernel.simulated_seconds
        assert record.io_requests_per_proc == kernel.io_statistics["io_requests_per_proc"]
        assert record.io_read_bytes_per_proc == kernel.io_statistics["bytes_read_per_proc"]
        assert record.io_write_bytes_per_proc == kernel.io_statistics["bytes_written_per_proc"]


# ---------------------------------------------------------------------------
# an operand referenced twice: created once per name, read once per reference
# ---------------------------------------------------------------------------
REPEATED_OPERAND_SOURCE = """
program twice
  parameter (n = 16, nprocs = 4)
  real a(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) onto Pr
!hpf$ align a(*, :) with d
!hpf$ align c(*, :) with d
  c(:, :) = add(a(:, :), a(:, :))
end program
"""


@pytest.mark.parametrize("backend", ["simulated", "processes"])
def test_lone_repeated_operand_statement_runs_in_both_modes(tmp_path, backend):
    point = WorkloadPoint("hpf", slab_ratio=0.5, options={"source": REPEATED_OPERAND_SOURCE})
    with Session(config=RunConfig(scratch_dir=tmp_path), backend=backend) as session:
        plan = session.compile(point).program.plan
        estimate = session.run(point, mode=ExecutionMode.ESTIMATE)
        execute = session.run(point, mode=ExecutionMode.EXECUTE)
    assert execute.error is None and execute.verified is True
    assert estimate.io_requests_per_proc == execute.io_requests_per_proc == plan.cost.io_requests
    # `a` is read twice per slab: two fetch requests per slab, two passes of bytes
    a_slabs = plan.entry("a").num_slabs
    assert plan.cost.arrays["a"].fetch_requests == 2 * a_slabs
    local_bytes = 16 * 4 * 4  # a 16 x 4 float32 local array
    assert execute.io_read_bytes_per_proc == estimate.io_read_bytes_per_proc == 2 * local_bytes


# ---------------------------------------------------------------------------
# single-operand HPF programs execute end to end
# ---------------------------------------------------------------------------
class TestSingleOperandExecute:
    @pytest.mark.parametrize("version", ["", "column", "row"])
    def test_verified_against_dense_square(self, tmp_path, version):
        session = make_session(tmp_path)
        point = WorkloadPoint("hpf", version=version, slab_ratio=0.5,
                              options={"source": SINGLE_OPERAND_SOURCE})
        record = session.run(point, mode=ExecutionMode.EXECUTE)
        assert record.verified is True
        assert record.max_abs_error is not None and record.max_abs_error < 1e-1
        assert record.n == 64 and record.nprocs == 4

    def test_engine_numerics_match_numpy(self, tmp_path):
        compiled = Session().compile(source=SINGLE_OPERAND_SOURCE, slab_ratio=0.5)
        n = 64
        rng = np.random.default_rng(5)
        a = rng.standard_normal((n, n)).astype(np.float32)
        with VirtualMachine(4, compiled.program.params,
                            RunConfig(scratch_dir=tmp_path)) as vm:
            result = run_reduction_single_operand(vm, compiled.program, {"a": a})
            c = vm.to_dense(compiled.program.analysis.result)
        assert result.verified is True
        reference = a.astype(np.float64) @ a.astype(np.float64)
        np.testing.assert_allclose(c, reference, rtol=2e-3, atol=1e-3)

    def test_charges_cover_io_compute_and_comm(self, tmp_path):
        session = make_session(tmp_path)
        record = session.run(
            WorkloadPoint("hpf", slab_ratio=0.5, options={"source": SINGLE_OPERAND_SOURCE}),
            mode=ExecutionMode.EXECUTE,
        )
        assert record.io_time > 0
        assert record.compute_time > 0
        assert record.comm_time > 0  # broadcasts + global sums

    def test_executor_dispatches_single_operand(self, tmp_path):
        compiled = Session().compile(source=SINGLE_OPERAND_SOURCE, slab_ratio=0.5)
        inputs = {"a": np.zeros((64, 64), dtype=np.float32)}
        with VirtualMachine(4, compiled.program.params,
                            RunConfig(scratch_dir=tmp_path)) as vm:
            result = NodeProgramExecutor(compiled.program).execute(vm, inputs, verify=False)
        assert "single-operand" in result.strategy


# ---------------------------------------------------------------------------
# a custom workload needs only build_ir()
# ---------------------------------------------------------------------------
class TestBuildIrOnlyWorkload:
    def test_full_contract_from_one_hook(self, tmp_path):
        class MatmulOnly(Workload):
            def build_ir(self, point, params):
                return Lowering(
                    ir=build_gaxpy_ir(point.n, point.nprocs, dtype=point.dtype),
                    slab_ratio=point.slab_ratio or 0.5,
                )

        register_workload("unit-matmul")(MatmulOnly)
        try:
            session = make_session(tmp_path)
            point = WorkloadPoint("unit-matmul", n=32, nprocs=2, slab_ratio=0.5)
            estimate = session.run(point, mode=ExecutionMode.ESTIMATE)
            assert estimate.simulated_seconds > 0
            assert estimate.version in ("column", "row")
            execute = session.run(point, mode=ExecutionMode.EXECUTE)
            assert execute.verified is True
        finally:
            unregister_workload("unit-matmul")

    def test_workload_without_build_ir_reports_clear_error(self):
        class Empty(Workload):
            pass

        register_workload("unit-empty")(Empty)
        try:
            with pytest.raises(NotImplementedError, match="build_ir"):
                Session().compile(WorkloadPoint("unit-empty", n=8, nprocs=2))
        finally:
            unregister_workload("unit-empty")


# ---------------------------------------------------------------------------
# executor guards
# ---------------------------------------------------------------------------
class TestExecutorGuards:
    def test_bulk_estimate_rejects_machine_for_data_movement(self):
        from repro.machine import Machine

        compiled = compile_program(build_elementwise_ir(16, 2),
                                   slab_elements={"a": 32, "b": 32, "c": 32})
        with pytest.raises(RuntimeExecutionError, match="reduction"):
            NodeProgramExecutor(compiled).estimate(machine=Machine(2))

    def test_data_movement_estimates_on_an_estimate_vm(self):
        compiled = compile_program(build_transpose_ir(16, 2), slab_ratio=0.5)
        executor = NodeProgramExecutor(compiled)
        with pytest.raises(RuntimeExecutionError, match="reduction"):
            executor.estimate()
        vm = VirtualMachine(2, compiled.params, RunConfig(mode=ExecutionMode.ESTIMATE))
        result = executor.run(vm, None, verify=False)
        assert result.simulated_seconds > 0
        assert result.mode is ExecutionMode.ESTIMATE

    @pytest.mark.parametrize("mode", [ExecutionMode.ESTIMATE, ExecutionMode.EXECUTE])
    def test_two_operand_engines_reject_single_operand_programs(self, tmp_path, mode):
        """Direct engine calls must fail clearly, not crash in numpy."""
        from repro.runtime.executor import run_reduction_column, run_reduction_row

        compiled = Session().compile(source=SINGLE_OPERAND_SOURCE, slab_ratio=0.5)
        for engine in (run_reduction_column, run_reduction_row):
            with VirtualMachine(4, compiled.program.params,
                                RunConfig(scratch_dir=tmp_path, mode=mode)) as vm:
                with pytest.raises(RuntimeExecutionError, match="single_operand"):
                    engine(vm, compiled.program, None, verify=False)
