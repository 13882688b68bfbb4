"""Tests for the fast-path execution engine.

Covers the persistent LAF descriptors and their LRU cache, the
charge-only re-read used by the batched engines, the parallel cached sweep
driver, and the cost-model fix for single-operand statements.
"""

import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Session, WorkloadPoint
from repro.config import ExecutionMode, RunConfig
from repro.core.cost_model import CostModel
from repro.core.stripmine import SlabPlanEntry
from repro.exceptions import IOEngineError
from repro.machine import Machine
from repro.machine.parameters import touchstone_delta
from repro.runtime import (
    IOEngine,
    LafHandleCache,
    LocalArrayFile,
    Slab,
    SlabbingStrategy,
    VirtualMachine,
)
from repro.runtime import laf as laf_module
from repro.runtime.executor import run_reduction_row


# ---------------------------------------------------------------------------
# persistent descriptors and the LRU handle cache
# ---------------------------------------------------------------------------
def read_whole(laf):
    """The whole local array, read as one slab."""
    return laf.read_slab(Slab(index=0, row_start=0, row_stop=laf.shape[0],
                              col_start=0, col_stop=laf.shape[1]))


class TestPersistentHandles:
    def test_handle_is_reused_across_accesses(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (8, 6), np.float32)
        slab = Slab(index=0, row_start=0, row_stop=8, col_start=0, col_stop=2)
        assert not laf.handle_open
        laf.write_full(np.arange(48, dtype=np.float32).reshape(8, 6))
        assert laf.handle_open
        first = laf._fd
        laf.read_slab(slab)
        laf.column_view(2, 5)
        read_whole(laf)
        assert laf._fd == first  # no re-open between accesses
        assert laf._mm is None  # every access was one extent: nothing mapped

    def test_close_flushes_and_invalidates(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4), np.float64)
        data = np.arange(16, dtype=np.float64).reshape(4, 4)
        laf.write_full(data)  # forced to disk by close()
        laf.close()
        assert not laf.handle_open
        with pytest.raises(IOEngineError):
            read_whole(laf)
        on_disk = np.fromfile(tmp_path / "x.dat", dtype=np.float64).reshape(4, 4, order="F")
        np.testing.assert_array_equal(on_disk, data)

    def test_flush_forces_writes_to_disk(self, tmp_path, monkeypatch):
        synced = []
        fsync = laf_module.os.fsync
        monkeypatch.setattr(laf_module.os, "fsync", lambda fd: (synced.append(fd), fsync(fd)))
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4), np.float32, order="C")
        laf.write_full(np.zeros((4, 4), dtype=np.float32))
        slab = Slab(index=0, row_start=1, row_stop=3, col_start=0, col_stop=4)
        laf.write_slab(slab, np.ones((2, 4), dtype=np.float32))
        assert synced == []  # writes alone never sync
        laf.flush()
        assert synced == [laf._fd]
        on_disk = np.fromfile(tmp_path / "x.dat", dtype=np.float32).reshape(4, 4)
        assert on_disk[1:3].sum() == 8
        laf.delete()
        assert len(synced) == 1  # delete writes nothing back

    def test_delete_invalidates_handle_and_file(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4))
        laf.write_full(np.ones((4, 4)))
        assert laf.handle_open
        fd = laf._fd
        laf.delete()
        assert not laf.handle_open
        with pytest.raises(OSError):
            os.fstat(fd)  # the descriptor itself is closed
        assert not laf.exists()
        with pytest.raises(IOEngineError):
            laf.read_slab(Slab(index=0, row_start=0, row_stop=1, col_start=0, col_stop=1))
        with pytest.raises(IOEngineError):
            laf.write_full(np.zeros((4, 4)))
        laf.delete()  # still idempotent

    def test_lru_cache_bounds_open_handles(self, tmp_path):
        cache = LafHandleCache(capacity=2)
        lafs = [
            LocalArrayFile(tmp_path / f"{i}.dat", (4, 4), np.float64, handle_cache=cache)
            for i in range(3)
        ]
        for i, laf in enumerate(lafs):
            laf.write_full(np.full((4, 4), float(i)))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert not lafs[0].handle_open  # least recently used was evicted
        assert lafs[1].handle_open and lafs[2].handle_open
        # The evicted descriptor was closed; access transparently reopens it.
        np.testing.assert_array_equal(read_whole(lafs[0]), np.zeros((4, 4)))
        assert lafs[0].handle_open
        assert not lafs[1].handle_open  # reopening 0 evicted the next LRU
        for laf in lafs:
            laf.delete()
        assert len(cache) == 0

    def test_cache_rejects_silly_capacity(self):
        with pytest.raises(IOEngineError):
            LafHandleCache(capacity=0)

    def test_vm_cleanup_empties_handle_cache(self, tmp_path):
        from repro.core import compile_gaxpy

        compiled = compile_gaxpy(32, 2, slab_ratio=0.5)
        vm = VirtualMachine(2, compiled.params, RunConfig(scratch_dir=tmp_path))
        ones = np.ones((32, 32), dtype=np.float32)
        run_reduction_row(vm, compiled, {"a": ones, "b": ones}, verify=False)
        lafs = [ocla.laf for array in vm.arrays.values() for ocla in array]
        assert len(vm.handle_cache) > 0
        vm.cleanup()
        assert len(vm.handle_cache) == 0
        assert not any(laf.handle_open for laf in lafs)

    def test_only_a_slab_that_is_not_one_extent_is_mapped(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (8, 6), np.float32)  # F order
        data = np.arange(48, dtype=np.float32).reshape(8, 6)
        laf.write_full(data)
        one_extent = (
            Slab(index=0, row_start=0, row_stop=8, col_start=1, col_stop=4),  # whole columns
            Slab(index=1, row_start=2, row_stop=7, col_start=3, col_stop=4),  # part of one
        )
        for slab in one_extent:
            np.testing.assert_array_equal(laf.read_slab(slab), data[slab.row_slice, slab.col_slice])
        assert laf._mm is None
        rows = Slab(index=2, row_start=2, row_stop=4, col_start=0, col_stop=6)
        np.testing.assert_array_equal(laf.read_slab(rows), data[2:4])
        assert laf._mm is not None  # a row slab of an F file is strided
        laf.close()
        assert laf._mm is None

    def test_short_write_raises_with_identity(self, tmp_path, monkeypatch):
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4), np.float32, array_name="x", rank=1)
        monkeypatch.setattr(laf_module.os, "pwrite", lambda fd, data, offset: 3)
        with pytest.raises(IOEngineError, match=r"short write .*x\[p1\].*3 of 64 bytes"):
            laf.write_full(np.ones((4, 4), dtype=np.float32))


def test_truncated_file_raises_with_identity_on_read(tmp_path):
    laf = LocalArrayFile(tmp_path / "x.dat", (8, 4), np.float32, array_name="x", rank=2)
    laf.write_full(np.ones((8, 4), dtype=np.float32))
    os.truncate(laf.path, 40)  # behind the file's back: 10 of its 32 elements left
    column = Slab(index=0, row_start=0, row_stop=8, col_start=1, col_stop=2)
    with pytest.raises(IOEngineError, match=r"short read .*x\[p2\].*8 of 32 bytes"):
        laf.read_slab(column)
    rows = Slab(index=1, row_start=0, row_stop=2, col_start=0, col_stop=4)  # mapped path
    with pytest.raises(IOEngineError, match=r"x\[p2\].*holds 40 of its 128 bytes"):
        laf.read_slab(rows)


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs Linux /proc")
def test_engines_map_no_local_array_file(tmp_path):
    """The column and row GAXPY, elementwise and transpose engines move every
    slab with positioned requests: with the VM still open, the process maps
    no file of its scratch directory."""
    from repro.core import compile_gaxpy
    from repro.core.ir import build_elementwise_ir, build_transpose_ir
    from repro.core.pipeline import compile_program
    from repro.runtime.executor import (
        run_elementwise_plan,
        run_reduction_column,
        run_transpose_plan,
    )
    from repro.runtime.operands import input_operands

    runs = [
        (run_reduction_column, compile_gaxpy(32, 2, slab_ratio=0.25, force_strategy="column")),
        (run_reduction_row, compile_gaxpy(32, 2, slab_ratio=0.25, force_strategy="row")),
        (run_elementwise_plan, compile_program(build_elementwise_ir(32, 2), slab_ratio=0.25)),
        (run_transpose_plan, compile_program(build_transpose_ir(32, 2), slab_ratio=0.25)),
    ]
    for engine, compiled in runs:
        inputs = input_operands(compiled.program, 3)
        with VirtualMachine(2, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
            assert engine(vm, compiled, inputs).verified is True
            maps = Path("/proc/self/maps").read_text()
            assert str(vm.work_dir) not in maps, engine.__name__


# ---------------------------------------------------------------------------
# LAF slab round-trips in both storage orders
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("order", ["F", "C"])
def test_slab_round_trip_preserves_data_in_both_orders(tmp_path, order):
    laf = LocalArrayFile(tmp_path / "x.dat", (8, 6), np.float64, order=order)
    rng = np.random.default_rng(7)
    data = rng.standard_normal((8, 6))
    laf.write_full(data)
    expected = data.copy()
    for slab in (
        Slab(index=0, row_start=0, row_stop=8, col_start=1, col_stop=3),  # whole columns
        Slab(index=1, row_start=2, row_stop=4, col_start=0, col_stop=6),  # whole rows
        Slab(index=2, row_start=1, row_stop=5, col_start=2, col_stop=5),  # interior block
    ):
        np.testing.assert_array_equal(laf.read_slab(slab), expected[slab.row_slice, slab.col_slice])
        patch = rng.standard_normal(slab.shape)
        laf.write_slab(slab, patch)
        expected[slab.row_slice, slab.col_slice] = patch
    laf.close()
    reopened = LocalArrayFile(tmp_path / "x.dat", (8, 6), np.float64, order=order)
    np.testing.assert_array_equal(read_whole(reopened), expected)


# ---------------------------------------------------------------------------
# charge-only re-reads match real reads exactly
# ---------------------------------------------------------------------------
def test_charge_read_slab_matches_real_read(tmp_path):
    slab = Slab(index=0, row_start=0, row_stop=3, col_start=0, col_stop=8)
    machines = [Machine(2), Machine(2)]
    for i, machine in enumerate(machines):
        # the second engine is ESTIMATE's: it charges the read and moves no data
        engine = IOEngine(machine, perform_io=i == 0)
        laf = LocalArrayFile(tmp_path / f"{i}.dat", (8, 8), np.float32)
        laf.write_full(np.zeros((8, 8), dtype=np.float32))
        data = engine.read_slab(1, laf, slab)
        assert (data is None) == (i == 1)
    real, charged = machines
    assert real.metrics[1].io_read_requests == charged.metrics[1].io_read_requests
    assert real.metrics[1].bytes_read == charged.metrics[1].bytes_read
    assert real.clocks.elapsed() == charged.clocks.elapsed()


# ---------------------------------------------------------------------------
# parallel cached sweep driver
# ---------------------------------------------------------------------------
def _sweep_grid():
    return [
        WorkloadPoint("gaxpy", n=n, nprocs=p, version=version,
                      slab_ratio=None if version == "incore" else 0.5)
        for n, p in ((32, 2), (64, 4))
        for version in ("column", "row", "incore")
    ]


def test_parallel_execute_sweep_matches_sequential(tmp_path):
    session = Session(config=RunConfig(scratch_dir=tmp_path))
    sequential = session.sweep(_sweep_grid(), mode=ExecutionMode.EXECUTE)
    parallel = session.sweep(_sweep_grid(), mode=ExecutionMode.EXECUTE, workers=4)
    assert len(sequential) == len(parallel) == 6
    assert all(record.verified is True for record in sequential)
    for seq, par in zip(sequential, parallel, strict=True):
        assert seq == par  # RunRecord is a dataclass: per-field equality


def test_parallel_estimate_sweep_matches_sequential():
    session = Session()
    sequential = session.sweep(_sweep_grid(), mode=ExecutionMode.ESTIMATE)
    parallel = session.sweep(_sweep_grid(), mode=ExecutionMode.ESTIMATE, workers=4)
    for seq, par in zip(sequential, parallel, strict=True):
        assert seq == par


def test_compile_cache_shares_programs():
    session = Session(params=touchstone_delta())
    point = WorkloadPoint("gaxpy", n=64, nprocs=4, version="row", slab_ratio=0.25)
    one = session.compile(point)
    two = session.compile(
        WorkloadPoint("gaxpy", n=64, nprocs=4, version="row", slab_ratio=0.25)
    )
    other = session.compile(
        WorkloadPoint("gaxpy", n=64, nprocs=4, version="row", slab_ratio=0.5)
    )
    assert one is two
    assert other is not one
    assert one.program.plan.strategy is SlabbingStrategy.ROW


# ---------------------------------------------------------------------------
# cost model: single-operand (coefficient == streamed) statements
# ---------------------------------------------------------------------------
def _entry(name, strategy, local_shape, num_slabs, lines):
    return SlabPlanEntry(
        array=name,
        strategy=strategy,
        slab_elements=lines * (local_shape[0] if strategy is SlabbingStrategy.COLUMN
                               else local_shape[1]),
        local_shape=local_shape,
        num_slabs=num_slabs,
        lines_per_slab=lines,
        storage_order="F" if strategy is SlabbingStrategy.COLUMN else "C",
    )


@pytest.mark.parametrize("strategy", [SlabbingStrategy.COLUMN, SlabbingStrategy.ROW])
def test_single_operand_statement_keeps_coefficient_reread_cost(strategy):
    analysis = SimpleNamespace(
        streamed="a", coefficient="a", result="c",
        outer_loop=SimpleNamespace(extent=16),
    )
    entries = {
        "a": _entry("a", strategy, (16, 8), num_slabs=4, lines=2),
        "c": _entry("c", strategy, (16, 8), num_slabs=4, lines=2),
    }
    model = CostModel(touchstone_delta(), nprocs=4)
    local = 16.0 * 8.0
    rows = model._reduction_rows(
        analysis,
        strategy,
        {name: entry.num_slabs for name, entry in entries.items()},
        {name: local for name in entries},
    )
    assert set(rows) == {"a", "c"}
    fetch_requests, fetch_elements, _, _ = rows["a"]
    if strategy is SlabbingStrategy.COLUMN:
        # streamed role: refetched per result column; coefficient role: once.
        assert fetch_requests == 16 * 4 + 4
        assert fetch_elements == 16 * local + local
    else:
        # streamed role: each slab once; coefficient role: once per streamed slab.
        assert fetch_requests == 4 + 4 * 4
        assert fetch_elements == local + 4 * local
