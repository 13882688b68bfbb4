"""Tests for the fast-path execution engine.

Covers the persistent LAF memmap handles and their LRU cache, the
charge-only re-read used by the batched engines, the parallel cached sweep
driver, and the cost-model fix for single-operand statements.
"""

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
from repro.runtime.executor import run_reduction_row


# ---------------------------------------------------------------------------
# persistent handles and the LRU handle cache
# ---------------------------------------------------------------------------
class TestPersistentHandles:
    def test_handle_is_reused_across_accesses(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (8, 6), np.float32)
        slab = Slab(index=0, row_start=0, row_stop=8, col_start=0, col_stop=2)
        assert not laf.handle_open
        laf.write_full(np.arange(48, dtype=np.float32).reshape(8, 6))
        assert laf.handle_open
        first = laf._mm
        laf.read_slab(slab)
        laf.read_full()
        assert laf._mm is first  # no re-open between accesses

    def test_close_flushes_and_invalidates(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4), np.float64)
        data = np.arange(16, dtype=np.float64).reshape(4, 4)
        laf.write_full(data)  # sync=False: flushed by close()
        laf.close()
        assert not laf.handle_open
        with pytest.raises(IOEngineError):
            laf.read_full()
        on_disk = np.fromfile(tmp_path / "x.dat", dtype=np.float64).reshape(4, 4, order="F")
        np.testing.assert_array_equal(on_disk, data)

    def test_sync_writes_flush_immediately(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4), np.float32, order="C")
        laf.write_full(np.zeros((4, 4), dtype=np.float32), sync=True)
        slab = Slab(index=0, row_start=1, row_stop=3, col_start=0, col_stop=4)
        laf.write_slab(slab, np.ones((2, 4), dtype=np.float32), sync=True)
        on_disk = np.fromfile(tmp_path / "x.dat", dtype=np.float32).reshape(4, 4)
        assert on_disk[1:3].sum() == 8

    def test_delete_invalidates_handle_and_file(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4))
        laf.write_full(np.ones((4, 4)))
        assert laf.handle_open
        laf.delete()
        assert not laf.handle_open
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
        # Evicted handle was flushed; access transparently reopens it.
        np.testing.assert_array_equal(lafs[0].read_full(), np.zeros((4, 4)))
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
        assert len(vm.handle_cache) > 0
        vm.cleanup()
        assert len(vm.handle_cache) == 0


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
    np.testing.assert_array_equal(reopened.read_full(), expected)


@pytest.mark.parametrize("order,whole_cols,whole_rows,interior", [
    ("F", 1, 6, 3),   # column-major: whole columns contiguous, else one extent per column
    ("C", 8, 1, 4),   # row-major: whole rows contiguous, else one extent per row
])
def test_contiguous_chunk_counts_by_order(tmp_path, order, whole_cols, whole_rows, interior):
    laf = LocalArrayFile(tmp_path / "x.dat", (8, 6), np.float64, order=order)

    def chunks(slab):
        return slab.contiguous_chunks(laf.shape, laf.order)

    assert chunks(Slab(index=0, row_start=0, row_stop=8, col_start=1, col_stop=3)) == whole_cols
    assert chunks(Slab(index=1, row_start=2, row_stop=4, col_start=0, col_stop=6)) == whole_rows
    assert chunks(Slab(index=2, row_start=1, row_stop=5, col_start=2, col_stop=5)) == interior


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
        WorkloadPoint("gaxpy", n=n, nprocs=p, version=version, slab_ratio=0.5)
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
