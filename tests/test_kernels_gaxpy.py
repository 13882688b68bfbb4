"""Correctness and consistency tests for the executable reduction (GAXPY) engines."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Session, WorkloadPoint, get_workload
from repro.config import ExecutionMode, RunConfig
from repro.core import compile_gaxpy
from repro.exceptions import RuntimeExecutionError
from repro.machine.parameters import MachineParameters
from repro.runtime import NodeProgramExecutor, VirtualMachine, reduction_reference
from repro.runtime.executor import run_reduction_column, run_reduction_row
from repro.runtime.operands import Operand
from repro.runtime.slab import SlabbingStrategy
from tests.scenarios import RECORD_CHARGES, hpf_source


def generate_gaxpy_inputs(n, seed=1994):
    """Reproducible ``n x n`` float32 operands, by array name."""
    return {name: Operand(name, (n, n), np.float32, seed) for name in "ab"}


def make_vm(nprocs, params, tmp_path, mode=ExecutionMode.EXECUTE):
    return VirtualMachine(nprocs, params, RunConfig(scratch_dir=tmp_path, mode=mode))


def compile_incore(n, p):
    """The in-core version, lowered as the workload lowers it."""
    return get_workload("gaxpy").compile(
        WorkloadPoint("gaxpy", n=n, nprocs=p, version="incore"), MachineParameters()
    ).program


# ---------------------------------------------------------------------------
# reference and inputs
# ---------------------------------------------------------------------------
class TestReference:
    def test_reference_equals_numpy_matmul(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16))
        np.testing.assert_allclose(reduction_reference(a, b), a @ b, rtol=1e-10)

    def test_inputs_are_reproducible(self):
        one = generate_gaxpy_inputs(32, seed=7)
        two = generate_gaxpy_inputs(32, seed=7)
        np.testing.assert_array_equal(one["a"], two["a"])
        assert one["a"].shape[0] == 32


# ---------------------------------------------------------------------------
# numerical correctness of every program version
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("runner", [run_reduction_column, run_reduction_row])
@pytest.mark.parametrize("n,p,ratio", [(32, 2, 0.5), (64, 4, 0.25), (48, 4, 1.0)])
def test_versions_match_dense_reference(tmp_path, runner, n, p, ratio):
    compiled = compile_gaxpy(n, p, slab_ratio=ratio)
    inputs = generate_gaxpy_inputs(n)
    with make_vm(p, compiled.params, tmp_path) as vm:
        result = runner(vm, compiled, inputs)
        c = vm.to_dense("c")
    assert result.verified is True
    reference = reduction_reference(inputs["a"], inputs["b"])
    np.testing.assert_allclose(c, reference, rtol=2e-3, atol=1e-3)


@pytest.mark.parametrize("n,p", [(32, 2), (64, 4), (48, 4)])
def test_incore_version_matches_dense_reference(tmp_path, n, p):
    compiled = compile_incore(n, p)
    # the row-slab program at slab ratio 1: one slab per local array
    assert compiled.plan.strategy is SlabbingStrategy.ROW
    inputs = generate_gaxpy_inputs(n)
    with make_vm(p, compiled.params, tmp_path) as vm:
        result = run_reduction_row(vm, compiled, inputs)
        assert vm.io_statistics()["io_requests_per_proc"] == 3
        c = vm.to_dense("c")
    assert result.verified is True
    reference = reduction_reference(inputs["a"], inputs["b"])
    np.testing.assert_allclose(c, reference, rtol=2e-3, atol=1e-3)


def test_all_versions_agree_with_each_other(tmp_path):
    n, p = 64, 4
    compiled = compile_gaxpy(n, p, slab_ratio=0.25)
    inputs = generate_gaxpy_inputs(n)
    results = {}
    for name, runner, program in [("column", run_reduction_column, compiled),
                                  ("row", run_reduction_row, compiled),
                                  ("incore", run_reduction_row, compile_incore(n, p))]:
        with make_vm(p, program.params, tmp_path / name) as vm:
            runner(vm, program, inputs)
            results[name] = vm.to_dense("c")
    np.testing.assert_allclose(results["column"], results["row"], rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(results["column"], results["incore"], rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# I/O accounting matches the compiler's predictions
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("strategy,runner", [
    (SlabbingStrategy.COLUMN, run_reduction_column),
    (SlabbingStrategy.ROW, run_reduction_row),
])
def test_executed_io_counts_match_cost_model(tmp_path, strategy, runner):
    n, p, ratio = 64, 4, 0.25
    compiled = compile_gaxpy(n, p, slab_ratio=ratio, force_strategy=strategy)
    inputs = generate_gaxpy_inputs(n)
    with make_vm(p, compiled.params, tmp_path) as vm:
        result = runner(vm, compiled, inputs, verify=False)
    predicted = compiled.plan.cost
    # read requests per processor
    predicted_reads = sum(c.fetch_requests for c in predicted.arrays.values())
    assert result.io_statistics["io_read_requests_per_proc"] == pytest.approx(predicted_reads, rel=0.01)
    # bytes read per processor
    itemsize = compiled.program.arrays["a"].itemsize
    predicted_bytes = sum(c.fetch_elements for c in predicted.arrays.values()) * itemsize
    assert result.io_statistics["bytes_read_per_proc"] == pytest.approx(predicted_bytes, rel=0.01)


def test_row_slab_does_order_of_magnitude_less_io(tmp_path):
    n, p, ratio = 64, 4, 0.125
    compiled = compile_gaxpy(n, p, slab_ratio=ratio)
    inputs = generate_gaxpy_inputs(n)
    with make_vm(p, compiled.params, tmp_path / "c") as vm:
        column = run_reduction_column(vm, compiled, inputs, verify=False)
    with make_vm(p, compiled.params, tmp_path / "r") as vm:
        row = run_reduction_row(vm, compiled, inputs, verify=False)
    # At the full 1K size the ratio is ~N; at this test size it is still several-fold.
    assert column.io_statistics["bytes_read_per_proc"] > 5 * row.io_statistics["bytes_read_per_proc"]
    assert column.io_statistics["io_read_requests_per_proc"] > 5 * row.io_statistics["io_read_requests_per_proc"]
    assert column.simulated_seconds > row.simulated_seconds


def test_estimate_mode_charges_without_files(tmp_path):
    compiled = compile_gaxpy(64, 4, slab_ratio=0.25, force_strategy="row")
    with make_vm(4, compiled.params, tmp_path, mode=ExecutionMode.ESTIMATE) as vm:
        result = run_reduction_row(vm, compiled, None, verify=False)
        with pytest.raises(RuntimeExecutionError, match="EXECUTE"):
            vm.to_dense("c")
    assert result.simulated_seconds > 0
    assert not list(tmp_path.rglob("*.dat"))


def test_executor_estimate_matches_kernel_charges(tmp_path):
    """A Session ESTIMATE charges what the estimate-mode engine and EXECUTE charge."""
    point = WorkloadPoint("gaxpy", n=64, nprocs=4, version="column", slab_ratio=0.25)
    with Session(config=RunConfig(scratch_dir=tmp_path)) as session:
        estimate = session.run(point, mode="estimate")
        execute = session.run(point, mode="execute")
        compiled = session.compile(point).program
    with make_vm(4, compiled.params, tmp_path, mode=ExecutionMode.ESTIMATE) as vm:
        kernel_estimate = run_reduction_column(vm, compiled, None, verify=False)
    assert execute.verified is True
    for field in RECORD_CHARGES:
        assert getattr(estimate, field) == getattr(execute, field), field
    assert estimate.simulated_seconds == kernel_estimate.simulated_seconds
    assert estimate.io_requests_per_proc == kernel_estimate.io_statistics["io_requests_per_proc"]


# ---------------------------------------------------------------------------
# executor dispatch and validation
# ---------------------------------------------------------------------------
class TestExecutor:
    def test_dispatches_to_chosen_strategy(self, tmp_path):
        compiled = compile_gaxpy(48, 4, slab_ratio=0.5)  # optimizer picks row slabs
        inputs = generate_gaxpy_inputs(48)
        with make_vm(4, compiled.params, tmp_path) as vm:
            result = NodeProgramExecutor(compiled).execute(vm, inputs)
        assert result.strategy == "row-slab"
        assert result.verified is True

    def test_execute_requires_execute_mode(self, tmp_path):
        compiled = compile_gaxpy(32, 2, slab_ratio=0.5)
        with make_vm(2, compiled.params, tmp_path, mode=ExecutionMode.ESTIMATE) as vm:
            with pytest.raises(RuntimeExecutionError):
                NodeProgramExecutor(compiled).execute(vm, generate_gaxpy_inputs(32))

    def test_execute_rejects_foreign_inputs(self, tmp_path):
        compiled = compile_gaxpy(32, 2, slab_ratio=0.5)
        with make_vm(2, compiled.params, tmp_path) as vm:
            with pytest.raises(RuntimeExecutionError):
                NodeProgramExecutor(compiled).execute(vm, object())

    def test_estimate_describe(self, tmp_path):
        compiled = compile_gaxpy(128, 8, slab_ratio=0.25)
        with make_vm(8, compiled.params, tmp_path, mode=ExecutionMode.ESTIMATE) as vm:
            result = NodeProgramExecutor(compiled).run(vm, None, verify=False)
        assert "estimate" in result.describe()

    def test_dispatches_to_forced_strategy(self, tmp_path):
        compiled = compile_gaxpy(32, 2, slab_ratio=0.5, force_strategy="column")
        inputs = generate_gaxpy_inputs(32)
        with make_vm(2, compiled.params, tmp_path) as vm:
            result = NodeProgramExecutor(compiled).execute(vm, inputs)
        assert result.strategy == "column-slab"


# ---------------------------------------------------------------------------
# ragged local arrays
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("runner", [run_reduction_column, run_reduction_row])
def test_uneven_distribution_runs_verified(tmp_path, runner):
    compiled = compile_gaxpy(30, 4, slab_ratio=0.5)  # 30 not divisible by 4: 8, 8, 8, 6
    assert {shape[1] for shape in compiled.program.arrays["a"].local_shapes()} == {8, 6}
    inputs = generate_gaxpy_inputs(30)
    with make_vm(4, compiled.params, tmp_path) as vm:
        result = runner(vm, compiled, inputs)
        c = vm.to_dense("c")
    assert result.verified is True
    np.testing.assert_allclose(c, reduction_reference(inputs["a"], inputs["b"]),
                               rtol=2e-3, atol=1e-3)


@pytest.mark.parametrize("shape", ["matmul", "square"])
@pytest.mark.parametrize("version", ["column", "row"])
def test_empty_ranks_charge_nothing_and_join_every_collective(tmp_path, shape, version):
    """BLOCK over N = 9, P = 8 gives ranks of 2, 2, 2, 2 and 1 columns and
    three empty ones, in every reduction engine (``square`` is ``c = a @ a``)."""
    point = WorkloadPoint("hpf", version=version, slab_ratio=0.5,
                          options={"source": hpf_source(shape, 9, 8)})
    compiled = Session().compile(point)
    inputs = compiled.workload.generate_inputs(compiled, 7)
    with make_vm(8, compiled.params, tmp_path) as vm:
        result = NodeProgramExecutor(compiled.program).run(vm, inputs)
        metrics = vm.machine.metrics
    assert result.verified is True
    shapes = compiled.program.program.arrays["a"].local_shapes()
    assert [rank for rank, local in enumerate(shapes) if local[1] == 0] == [5, 6, 7]
    for rank in (5, 6, 7):
        assert (metrics[rank].io_requests, metrics[rank].bytes_read,
                metrics[rank].bytes_written, metrics[rank].flops) == (0, 0, 0, 0.0)
    assert len({counters.collectives for counters in metrics}) == 1
    assert metrics[0].collectives > 0


# ---------------------------------------------------------------------------
# property test: correctness over random sizes / processor counts / slabs
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    blocks=st.integers(2, 5),
    p=st.sampled_from([2, 4]),
    ratio=st.sampled_from([0.25, 0.5, 1.0]),
    row=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_property_out_of_core_product_is_correct(tmp_path_factory, blocks, p, ratio, row, seed):
    n = blocks * p * 2
    compiled = compile_gaxpy(n, p, slab_ratio=ratio,
                             force_strategy="row" if row else "column")
    inputs = generate_gaxpy_inputs(n, seed=seed)
    scratch = tmp_path_factory.mktemp("prop")
    runner = run_reduction_row if row else run_reduction_column
    with make_vm(p, compiled.params, scratch) as vm:
        result = runner(vm, compiled, inputs, verify=True)
    assert result.verified is True
