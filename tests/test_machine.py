"""Tests for the simulated machine: cost models, clocks, counters."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import (
    CollectiveError,
    IOEngineError,
    MachineConfigurationError,
)
from repro.machine import (
    DiskModel,
    DiskParameters,
    Machine,
    MachineParameters,
    NetworkModel,
    NetworkParameters,
    ProcessorModel,
    ProcessorParameters,
    get_preset,
    touchstone_delta,
)
from repro.machine.clock import ClockSet, ProcessorClock
from repro.machine.metrics import MetricsSet, OperationCounters


# ---------------------------------------------------------------------------
# parameters and presets
# ---------------------------------------------------------------------------
class TestParameters:
    def test_presets_exist(self):
        for name in ["touchstone-delta", "paragon", "ibm-sp1", "modern"]:
            params = get_preset(name)
            assert isinstance(params, MachineParameters)

    def test_unknown_preset(self):
        with pytest.raises(MachineConfigurationError):
            get_preset("cray-t3d")

    def test_invalid_disk_parameters(self):
        with pytest.raises(MachineConfigurationError):
            DiskParameters(read_bandwidth=0)
        with pytest.raises(MachineConfigurationError):
            DiskParameters(request_latency=-1)

    def test_invalid_network_parameters(self):
        with pytest.raises(MachineConfigurationError):
            NetworkParameters(bandwidth=-1)

    def test_invalid_processor_parameters(self):
        with pytest.raises(MachineConfigurationError):
            ProcessorParameters(memory_bytes=0)

    def test_read_time_is_affine(self):
        disk = DiskParameters(request_latency=0.01, read_bandwidth=1e6)
        assert disk.read_time(0, 1) == pytest.approx(0.01)
        assert disk.read_time(1_000_000, 1) == pytest.approx(1.01)
        assert disk.read_time(1_000_000, 10) == pytest.approx(1.10)

    def test_collective_rounds_log2(self):
        net = NetworkParameters()
        assert net.collective_rounds(1) == 0
        assert net.collective_rounds(2) == 1
        assert net.collective_rounds(4) == 2
        assert net.collective_rounds(5) == 3
        assert net.collective_rounds(64) == 6

    def test_describe(self):
        assert "MB/s" in touchstone_delta().describe()


# ---------------------------------------------------------------------------
# individual models
# ---------------------------------------------------------------------------
class TestDiskModel:
    def test_counters_accumulate(self):
        disk = DiskModel(params=DiskParameters())
        disk.read(1000, 2)
        disk.write(500, 1)
        assert disk.read_requests == 2
        assert disk.write_requests == 1
        assert disk.bytes_read == 1000
        assert disk.bytes_written == 500
        assert disk.total_requests == 3
        assert disk.total_bytes == 1500
        assert disk.busy_time > 0

    def test_negative_rejected(self):
        disk = DiskModel(params=DiskParameters())
        with pytest.raises(IOEngineError):
            disk.read(-1)

    def test_reset(self):
        disk = DiskModel(params=DiskParameters())
        disk.read(1000)
        disk.reset()
        assert disk.snapshot() == {
            "read_requests": 0,
            "write_requests": 0,
            "bytes_read": 0,
            "bytes_written": 0,
            "busy_time": 0.0,
        }


class TestNetworkModel:
    def test_global_sum_cost_grows_with_procs(self):
        net = NetworkModel(params=NetworkParameters())
        t4 = net.global_sum(4096, 4)
        t64 = net.global_sum(4096, 64)
        assert t64 > t4

    def test_invalid_collective(self):
        net = NetworkModel(params=NetworkParameters())
        with pytest.raises(CollectiveError):
            net.global_sum(10, 0)

    def test_all_to_all_single_proc_is_free(self):
        net = NetworkModel(params=NetworkParameters())
        assert net.all_to_all(1024, 1) == 0.0


class TestProcessorModel:
    def test_compute_time(self):
        proc = ProcessorModel(params=ProcessorParameters(flop_time=1e-6))
        assert proc.compute(1000) == pytest.approx(1e-3)
        assert proc.flops == 1000

    def test_memory_budget(self):
        proc = ProcessorModel(params=ProcessorParameters(memory_bytes=1024))
        assert proc.fits_in_memory(1024)
        assert not proc.fits_in_memory(1025)

    def test_negative_flops_rejected(self):
        proc = ProcessorModel(params=ProcessorParameters())
        with pytest.raises(MachineConfigurationError):
            proc.compute(-1)


# ---------------------------------------------------------------------------
# clocks
# ---------------------------------------------------------------------------
class TestClocks:
    def test_advance_categories(self):
        clock = ProcessorClock(rank=0)
        clock.advance(1.0, "io")
        clock.advance(2.0, "compute")
        clock.advance(0.5, "comm")
        assert clock.now == pytest.approx(3.5)
        assert clock.breakdown()["io"] == pytest.approx(1.0)

    def test_unknown_category(self):
        with pytest.raises(MachineConfigurationError):
            ProcessorClock(rank=0).advance(1.0, "gpu")

    def test_negative_advance(self):
        with pytest.raises(MachineConfigurationError):
            ProcessorClock(rank=0).advance(-1.0)

    def test_synchronize_charges_idle(self):
        clocks = ClockSet(3)
        clocks[0].advance(5.0, "compute")
        clocks[1].advance(2.0, "compute")
        clocks.synchronize()
        assert clocks[1].now == pytest.approx(5.0)
        assert clocks[1].idle_time == pytest.approx(3.0)
        assert clocks[2].idle_time == pytest.approx(5.0)
        assert clocks.elapsed() == pytest.approx(5.0)

    def test_breakdown_uses_maximum(self):
        clocks = ClockSet(2)
        clocks[0].advance(3.0, "io")
        clocks[1].advance(1.0, "io")
        assert clocks.breakdown()["io"] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_io_metrics(self):
        counters = OperationCounters()
        counters.record_read(4096, 2)
        counters.record_write(1024, 1)
        assert counters.io_requests == 3
        assert counters.io_bytes == 5120

    def test_merge(self):
        a = OperationCounters()
        a.record_read(10, 1)
        b = OperationCounters()
        b.record_read(20, 2)
        merged = a.merge(b)
        assert merged.io_read_requests == 3
        assert merged.bytes_read == 30

    def test_metrics_set_aggregations(self):
        metrics = MetricsSet(2)
        metrics[0].record_read(100, 1)
        metrics[1].record_read(300, 3)
        assert metrics.max_per_processor()["bytes_read"] == 300
        assert metrics.total()["bytes_read"] == 400
        assert metrics.mean()["io_read_requests"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Machine integration
# ---------------------------------------------------------------------------
class TestMachine:
    def test_construction_from_preset_name(self):
        machine = Machine(4, "paragon")
        assert machine.params.name == "intel-paragon"
        assert machine.nprocs == 4

    def test_invalid_nprocs(self):
        with pytest.raises(MachineConfigurationError):
            Machine(0)

    def test_charges_update_clock_metrics_and_models(self):
        machine = Machine(2)
        machine.charge_read(0, 1_000_000, 1)
        machine.charge_compute(0, 1e6)
        machine.charge_write(1, 500_000, 2)
        assert machine.metrics[0].bytes_read == 1_000_000
        assert machine.disks[0].read_requests == 1
        assert machine.clocks[0].io_time > 0
        assert machine.clocks[0].compute_time > 0
        assert machine.metrics[1].io_write_requests == 2
        assert machine.elapsed() > 0

    def test_global_sum_synchronizes(self):
        machine = Machine(4)
        machine.charge_compute(0, 1e7)  # rank 0 is ahead
        machine.charge_global_sum(4096, nelements=1024)
        times = [machine.clocks[r].now for r in range(4)]
        assert max(times) == pytest.approx(min(times))
        assert all(machine.metrics[r].collectives == 1 for r in range(4))

    def test_io_statistics(self):
        machine = Machine(2)
        machine.charge_read(0, 2048, 4)
        stats = machine.io_statistics()
        assert stats["io_requests_per_proc"] == 4
        assert stats["bytes_read_per_proc"] == 2048

    def test_reset(self):
        machine = Machine(2)
        machine.charge_read(0, 2048, 4)
        machine.charge_global_sum(128)
        machine.reset()
        assert machine.elapsed() == 0.0
        assert machine.metrics.total()["io_requests"] == 0
        assert machine.network.messages == 0

    def test_broadcast_and_all_to_all(self):
        machine = Machine(4)
        t1 = machine.charge_broadcast(4096)
        t2 = machine.charge_all_to_all(1024)
        assert t1 > 0 and t2 > 0
        assert machine.network.collectives == 2


# ---------------------------------------------------------------------------
# property tests on cost monotonicity
# ---------------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    nbytes=st.integers(0, 10**8),
    more=st.integers(1, 10**7),
    nrequests=st.integers(1, 1000),
)
def test_read_time_monotone_in_bytes(nbytes, more, nrequests):
    disk = DiskParameters()
    assert disk.read_time(nbytes + more, nrequests) > disk.read_time(nbytes, nrequests)


@settings(max_examples=100, deadline=None)
@given(nbytes=st.integers(0, 10**8), nrequests=st.integers(1, 1000), extra=st.integers(1, 1000))
def test_read_time_monotone_in_requests(nbytes, nrequests, extra):
    disk = DiskParameters()
    assert disk.read_time(nbytes, nrequests + extra) > disk.read_time(nbytes, nrequests)


@settings(max_examples=50, deadline=None)
@given(nprocs=st.integers(1, 1024))
def test_collective_rounds_is_ceil_log2(nprocs):
    net = NetworkParameters()
    expected = math.ceil(math.log2(nprocs)) if nprocs > 1 else 0
    assert net.collective_rounds(nprocs) == expected
