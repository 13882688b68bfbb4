"""Tests for the virtual machine and its collectives."""

import numpy as np
import pytest

from repro.config import ExecutionMode, RunConfig
from repro.exceptions import CollectiveError, RuntimeExecutionError
from repro.hpf import Alignment, ArrayDescriptor, ProcessorGrid, Template
from repro.machine import Machine
from repro.runtime import VirtualMachine, global_sum, broadcast


def make_descriptor(n=16, p=4, column=True, name="x", dtype=np.float32):
    grid = ProcessorGrid("Pr", p)
    template = Template("d", n, grid, ["block"])
    align = Alignment(template, ["*", ":"] if column else [":", "*"])
    return ArrayDescriptor(name, (n, n), align, dtype=dtype)


# ---------------------------------------------------------------------------
# collectives
# ---------------------------------------------------------------------------
class TestCollectives:
    def test_global_sum_values_and_cost(self):
        machine = Machine(4)
        contributions = {r: np.full(8, float(r)) for r in range(4)}
        total = global_sum(machine, contributions, shape=(8,), itemsize=8)
        np.testing.assert_allclose(total, np.full(8, 6.0))
        assert machine.network.collectives == 1
        assert all(machine.metrics[r].collectives == 1 for r in range(4))

    def test_global_sum_estimate_mode(self):
        machine = Machine(4)
        assert global_sum(machine, None, shape=(8,), itemsize=8) is None
        assert machine.network.collectives == 1

    def test_global_sum_missing_contribution(self):
        machine = Machine(3)
        with pytest.raises(CollectiveError):
            global_sum(machine, {0: np.zeros(4), 1: np.zeros(4)}, shape=(4,), itemsize=8)

    def test_global_sum_shape_mismatch(self):
        machine = Machine(2)
        with pytest.raises(CollectiveError):
            global_sum(machine, {0: np.zeros(4), 1: np.zeros(5)}, shape=(4,), itemsize=8)

    def test_broadcast(self):
        machine = Machine(4)
        data = np.arange(6.0)
        out = broadcast(machine, data, shape=(6,), itemsize=8)
        np.testing.assert_array_equal(out, data)
        with pytest.raises(CollectiveError):
            broadcast(machine, np.zeros(3), shape=(6,), itemsize=8)


# ---------------------------------------------------------------------------
# VirtualMachine
# ---------------------------------------------------------------------------
class TestVirtualMachine:
    def test_create_scatter_gather(self, tmp_path):
        desc = make_descriptor()
        dense = np.arange(256, dtype=np.float32).reshape(16, 16)
        with VirtualMachine(4, "delta", RunConfig(scratch_dir=tmp_path)) as vm:
            array = vm.create_array(desc, initial=dense)
            np.testing.assert_array_equal(vm.to_dense(array), dense)
            assert vm.get_array("x") is array

    def test_duplicate_array_name_rejected(self, tmp_path):
        desc = make_descriptor()
        with VirtualMachine(4, "delta", RunConfig(scratch_dir=tmp_path)) as vm:
            vm.create_array(desc, initial=np.zeros((16, 16), dtype=np.float32))
            with pytest.raises(RuntimeExecutionError):
                vm.create_array(desc, initial=np.zeros((16, 16), dtype=np.float32))

    def test_unknown_array(self, tmp_path):
        with VirtualMachine(2, "delta", RunConfig(scratch_dir=tmp_path)) as vm:
            with pytest.raises(RuntimeExecutionError):
                vm.get_array("nope")

    def test_non_2d_rejected(self, tmp_path):
        grid = ProcessorGrid("Pr", 2)
        template = Template("d", 8, grid, ["block"])
        desc = ArrayDescriptor("v", (8,), Alignment(template, [":"]))
        with VirtualMachine(2, "delta", RunConfig(scratch_dir=tmp_path)) as vm:
            with pytest.raises(RuntimeExecutionError):
                vm.create_array(desc)

    def test_estimate_mode_creates_no_files(self, tmp_path):
        desc = make_descriptor()
        config = RunConfig(scratch_dir=tmp_path, mode=ExecutionMode.ESTIMATE)
        vm = VirtualMachine(4, "delta", config)
        array = vm.create_array(desc)
        assert not any(tmp_path.iterdir())
        with pytest.raises(RuntimeExecutionError):
            vm.to_dense(array)
        vm.cleanup()

    def test_cleanup_removes_files(self, tmp_path):
        desc = make_descriptor()
        config = RunConfig(scratch_dir=tmp_path)
        vm = VirtualMachine(4, "delta", config)
        vm.create_array(desc, initial=np.zeros((16, 16), dtype=np.float32))
        files = list(tmp_path.rglob("*.dat"))
        assert len(files) == 4
        vm.cleanup()
        assert not list(tmp_path.rglob("*.dat"))

    def test_keep_files(self, tmp_path):
        desc = make_descriptor()
        config = RunConfig(scratch_dir=tmp_path, keep_files=True)
        vm = VirtualMachine(4, "delta", config)
        vm.create_array(desc, initial=np.zeros((16, 16), dtype=np.float32))
        vm.cleanup()
        assert len(list(tmp_path.rglob("*.dat"))) == 4

    def test_initial_write_charging(self, tmp_path):
        """Staging the initial data is not part of the program: never charged."""
        desc = make_descriptor()
        with VirtualMachine(4, "delta", RunConfig(scratch_dir=tmp_path)) as vm:
            vm.create_array(desc, initial=np.zeros((16, 16), dtype=np.float32))
            assert vm.machine.metrics[0].io_write_requests == 0

    def test_reset_costs_keeps_data(self, tmp_path):
        desc = make_descriptor()
        dense = np.ones((16, 16), dtype=np.float32)
        with VirtualMachine(4, "delta", RunConfig(scratch_dir=tmp_path)) as vm:
            array = vm.create_array(desc, initial=dense)
            vm.machine.charge_read(0, 100, 1)
            vm.reset_costs()
            assert vm.elapsed() == 0.0
            np.testing.assert_array_equal(vm.to_dense(array), dense)
