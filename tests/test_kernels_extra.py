"""Tests for the elementwise and transpose engines, driven from descriptors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ExecutionMode, RunConfig
from repro.exceptions import RuntimeExecutionError
from repro.hpf import Alignment, ArrayDescriptor, ProcessorGrid, Template
from repro.runtime import VirtualMachine
from repro.runtime.executor import run_elementwise_plan, run_transpose_plan


def column_block_descriptor(n, p, name="x", dtype=np.float32):
    grid = ProcessorGrid("Pr", p)
    template = Template("d", n, grid, ["block"])
    return ArrayDescriptor(name, (n, n), Alignment(template, ["*", ":"]), dtype=dtype)


def make_vm(p, tmp_path, mode=ExecutionMode.EXECUTE):
    return VirtualMachine(p, "delta", RunConfig(scratch_dir=tmp_path, mode=mode))


def run_elementwise(vm, n, p, a, b, op=np.add, slab_elements=64, strategy="column"):
    """``c = op(a, b)`` on three conformal column-block ``n x n`` arrays."""
    a_desc, b_desc, c_desc = (column_block_descriptor(n, p, name) for name in "abc")
    return run_elementwise_plan(
        vm, a_desc, b_desc, c_desc, op=op, slab_elements=slab_elements,
        strategy=strategy, a_dense=a, b_dense=b,
    )


def run_transpose(vm, n, p, a, cols_per_slab=4):
    """``dst = src^T`` on two column-block ``n x n`` arrays."""
    return run_transpose_plan(
        vm, column_block_descriptor(n, p, "src"), column_block_descriptor(n, p, "dst"),
        cols_per_slab=cols_per_slab, a_dense=a,
    )


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------
class TestElementwise:
    @pytest.mark.parametrize("strategy", ["column", "row"])
    @pytest.mark.parametrize("op", [np.add, np.multiply])
    def test_matches_dense_reference(self, tmp_path, strategy, op):
        n, p = 32, 4
        rng = np.random.default_rng(3)
        a = rng.standard_normal((n, n)).astype(np.float32)
        b = rng.standard_normal((n, n)).astype(np.float32)
        with make_vm(p, tmp_path) as vm:
            result = run_elementwise(vm, n, p, a, b, op=op, strategy=strategy)
        assert result.verified is True
        np.testing.assert_allclose(result.result, op(a, b), rtol=1e-4, atol=1e-5)

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
        assert result.result is None
        assert result.simulated_seconds > 0

    def test_rejects_non_2d(self, tmp_path):
        grid = ProcessorGrid("Pr", 2)
        template = Template("d", 8, grid, ["block"])
        desc = ArrayDescriptor("v", (8,), Alignment(template, [":"]))
        with make_vm(2, tmp_path) as vm:
            with pytest.raises(RuntimeExecutionError):
                run_elementwise_plan(vm, desc, desc, desc, op=np.add, slab_elements=64)

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
        assert result.verified is True
        np.testing.assert_allclose(result.result, a.T, rtol=1e-5)

    def test_exchanges_are_charged(self, tmp_path):
        n, p = 16, 4
        a = np.ones((n, n), dtype=np.float32)
        with make_vm(p, tmp_path) as vm:
            run_transpose(vm, n, p, a)
            assert vm.machine.network.collectives > 0
            assert vm.machine.metrics[0].io_read_requests > 0
            assert vm.machine.metrics[0].io_write_requests > 0

    def test_rejects_rectangular(self, tmp_path):
        grid = ProcessorGrid("Pr", 2)
        template = Template("d", 8, grid, ["block"])
        bad = ArrayDescriptor("r2", (4, 8), Alignment(template, ["*", ":"]))
        with make_vm(2, tmp_path) as vm:
            with pytest.raises(RuntimeExecutionError):
                run_transpose_plan(vm, bad, bad, cols_per_slab=8,
                                   a_dense=np.zeros((4, 8), dtype=np.float32))

    def test_estimate_mode(self, tmp_path):
        with make_vm(2, tmp_path, mode=ExecutionMode.ESTIMATE) as vm:
            result = run_transpose(vm, 16, 2, None, cols_per_slab=8)
        assert result.result is None
        assert result.simulated_seconds > 0
