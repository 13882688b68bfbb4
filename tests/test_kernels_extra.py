"""Tests for the elementwise and transpose engines, driven from compiled programs
over hand-built array descriptors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ExecutionMode, RunConfig
from repro.core.ir import ArrayRef, ElementwiseStatement, FullRange, ProgramIR, TransposeStatement
from repro.core.pipeline import compile_program
from repro.exceptions import CompilationError, RuntimeExecutionError
from repro.hpf import Alignment, ArrayDescriptor, ProcessorGrid, Template
from repro.runtime import VirtualMachine
from repro.runtime.executor import run_elementwise_plan, run_transpose_plan

OPS = {"add": np.add, "multiply": np.multiply}


def column_block_descriptor(n, p, name="x", dtype=np.float32):
    grid = ProcessorGrid("Pr", p)
    template = Template("d", n, grid, ["block"])
    return ArrayDescriptor(name, (n, n), Alignment(template, ["*", ":"]), dtype=dtype)


def make_vm(p, tmp_path, mode=ExecutionMode.EXECUTE):
    return VirtualMachine(p, "delta", RunConfig(scratch_dir=tmp_path, mode=mode))


def full(name, ndim=2):
    return ArrayRef(name, [FullRange()] * ndim)


def compile_elementwise(descriptors, op="add", slab_elements=64, strategy="column"):
    """``c = op(a, b)`` over the descriptors ``a, b, c``, ``slab_elements`` per slab."""
    a, b, c = (desc.name for desc in descriptors)
    ir = ProgramIR(
        name="ew", arrays={desc.name: desc for desc in descriptors}, loops=(),
        statement=ElementwiseStatement(full(c, descriptors[2].ndim),
                                       [full(a, descriptors[0].ndim), full(b, descriptors[1].ndim)],
                                       op=op),
    )
    return compile_program(ir, slab_elements=dict.fromkeys((a, b, c), slab_elements),
                           force_strategy=strategy)


def compile_transpose(src, dst, cols_per_slab):
    """``dst = src^T`` in column slabs of ``cols_per_slab`` columns."""
    ir = ProgramIR(name="tr", arrays={src.name: src, dst.name: dst}, loops=(),
                   statement=TransposeStatement(full(dst.name), full(src.name)))
    slab = cols_per_slab * src.shape[0]
    return compile_program(ir, slab_elements={src.name: slab, dst.name: slab})


def run_elementwise(vm, n, p, a, b, op="add", slab_elements=64, strategy="column"):
    """``c = op(a, b)`` on three conformal column-block ``n x n`` arrays."""
    compiled = compile_elementwise([column_block_descriptor(n, p, name) for name in "abc"],
                                   op=op, slab_elements=slab_elements, strategy=strategy)
    return run_elementwise_plan(vm, compiled, None if a is None else {"a": a, "b": b})


def run_transpose(vm, n, p, a, cols_per_slab=4):
    """``dst = src^T`` on two column-block ``n x n`` arrays."""
    compiled = compile_transpose(column_block_descriptor(n, p, "src"),
                                 column_block_descriptor(n, p, "dst"), cols_per_slab)
    assert compiled.plan.entry("src").lines_per_slab == cols_per_slab
    return run_transpose_plan(vm, compiled, None if a is None else {"src": a})


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------
class TestElementwise:
    @pytest.mark.parametrize("strategy", ["column", "row"])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_matches_dense_reference(self, tmp_path, strategy, op):
        n, p = 32, 4
        rng = np.random.default_rng(3)
        a = rng.standard_normal((n, n)).astype(np.float32)
        b = rng.standard_normal((n, n)).astype(np.float32)
        with make_vm(p, tmp_path) as vm:
            result = run_elementwise(vm, n, p, a, b, op=op, strategy=strategy)
            c = vm.to_dense("c")
        assert result.verified is True
        np.testing.assert_allclose(c, OPS[op](a, b), rtol=1e-4, atol=1e-5)

    def test_io_volume_is_one_pass(self, tmp_path):
        n, p = 32, 4
        desc = column_block_descriptor(n, p)
        a = np.ones((n, n), dtype=np.float32)
        with make_vm(p, tmp_path) as vm:
            result = run_elementwise(vm, n, p, a, a)
        local_bytes = desc.local_nbytes(0)
        stats = result.io_statistics
        assert stats["bytes_read_per_proc"] == 2 * local_bytes       # a and b once each
        assert stats["bytes_written_per_proc"] == local_bytes        # c once

    def test_no_communication_charged(self, tmp_path):
        n, p = 32, 4
        a = np.ones((n, n), dtype=np.float32)
        with make_vm(p, tmp_path) as vm:
            run_elementwise(vm, n, p, a, a)
            assert vm.machine.network.collectives == 0

    def test_estimate_mode(self, tmp_path):
        with make_vm(4, tmp_path, mode=ExecutionMode.ESTIMATE) as vm:
            result = run_elementwise(vm, 32, 4, None, None)
            with pytest.raises(RuntimeExecutionError, match="EXECUTE"):
                vm.to_dense("c")
        assert result.simulated_seconds > 0

    def test_rejects_non_2d(self):
        # the compiler refuses the statement; no engine is ever handed it
        grid = ProcessorGrid("Pr", 2)
        template = Template("d", 8, grid, ["block"])
        vectors = [ArrayDescriptor(name, (8,), Alignment(template, [":"])) for name in "uvw"]
        with pytest.raises(CompilationError, match="two-dimensional"):
            compile_elementwise(vectors)

    @settings(max_examples=8, deadline=None)
    @given(blocks=st.integers(1, 4), p=st.sampled_from([2, 4]), seed=st.integers(0, 1000))
    def test_property_correctness(self, tmp_path_factory, blocks, p, seed):
        n = blocks * p * 2
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, n)).astype(np.float32)
        b = rng.standard_normal((n, n)).astype(np.float32)
        with make_vm(p, tmp_path_factory.mktemp("ew")) as vm:
            result = run_elementwise(vm, n, p, a, b, slab_elements=max(n, 8))
        assert result.verified is True


# ---------------------------------------------------------------------------
# transpose
# ---------------------------------------------------------------------------
class TestTranspose:
    @pytest.mark.parametrize("n,p", [(16, 2), (32, 4), (24, 4)])
    def test_matches_numpy_transpose(self, tmp_path, n, p):
        rng = np.random.default_rng(n + p)
        a = rng.standard_normal((n, n)).astype(np.float32)
        with make_vm(p, tmp_path) as vm:
            result = run_transpose(vm, n, p, a)
            dst = vm.to_dense("dst")
        assert result.verified is True
        np.testing.assert_allclose(dst, a.T, rtol=1e-5)

    def test_exchanges_are_charged(self, tmp_path):
        n, p = 16, 4
        a = np.ones((n, n), dtype=np.float32)
        with make_vm(p, tmp_path) as vm:
            run_transpose(vm, n, p, a)
            assert vm.machine.network.collectives > 0
            assert vm.machine.metrics[0].io_read_requests > 0
            assert vm.machine.metrics[0].io_write_requests > 0

    def test_rejects_rectangular(self):
        # the compiler refuses the statement; no engine is ever handed it
        grid = ProcessorGrid("Pr", 2)
        template = Template("d", 8, grid, ["block"])
        src, dst = (ArrayDescriptor(name, (4, 8), Alignment(template, ["*", ":"]))
                    for name in ("r2", "r3"))
        with pytest.raises(CompilationError, match="square"):
            compile_transpose(src, dst, cols_per_slab=8)

    def test_estimate_mode(self, tmp_path):
        with make_vm(2, tmp_path, mode=ExecutionMode.ESTIMATE) as vm:
            result = run_transpose(vm, 16, 2, None, cols_per_slab=8)
            with pytest.raises(RuntimeExecutionError, match="EXECUTE"):
                vm.to_dense("dst")
        assert result.simulated_seconds > 0
