"""Tests for slabs, Local Array Files and the I/O engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import IOEngineError
from repro.machine import Machine
from repro.runtime import (
    IOEngine,
    LocalArrayFile,
    Slab,
    SlabbingStrategy,
    column_slabs,
    make_slabs,
    row_slabs,
)
from repro.runtime.slab import lines_per_slab, slab_runs


# ---------------------------------------------------------------------------
# Slab geometry
# ---------------------------------------------------------------------------
class TestSlab:
    def test_shape_and_bytes(self):
        slab = Slab(index=0, row_start=0, row_stop=8, col_start=4, col_stop=10)
        assert slab.shape == (8, 6)
        assert slab.nelements == 48
        assert slab.nbytes(4) == 192

    def test_negative_extent_rejected(self):
        with pytest.raises(IOEngineError):
            Slab(index=0, row_start=5, row_stop=3, col_start=0, col_stop=1)

    def test_contains(self):
        slab = Slab(index=0, row_start=2, row_stop=4, col_start=1, col_stop=3)
        assert slab.contains(2, 1)
        assert not slab.contains(4, 1)


class TestSlabbing:
    def test_column_slabs_cover_disjointly(self):
        slabs = column_slabs((16, 10), 4)
        assert [s.col_start for s in slabs] == [0, 4, 8]
        assert [s.col_stop for s in slabs] == [4, 8, 10]
        assert sum(s.nelements for s in slabs) == 160

    def test_row_slabs_cover_disjointly(self):
        slabs = row_slabs((10, 16), 4)
        assert [s.row_start for s in slabs] == [0, 4, 8]
        assert sum(s.nelements for s in slabs) == 160

    def test_invalid_slab_size(self):
        with pytest.raises(IOEngineError):
            column_slabs((4, 4), 0)

    def test_make_slabs_from_elements(self):
        # 16 rows -> 64 elements per slab = 4 columns per slab
        slabs = make_slabs((16, 12), SlabbingStrategy.COLUMN, 64)
        assert all(s.ncols == 4 for s in slabs)
        assert len(slabs) == 3

    def test_make_slabs_at_least_one_line(self):
        slabs = make_slabs((16, 12), "column", 3)  # less than one column still gives one column
        assert slabs[0].ncols == 1

    def test_strategy_parsing(self):
        assert SlabbingStrategy.from_name("ROW") is SlabbingStrategy.ROW
        assert SlabbingStrategy.from_name(SlabbingStrategy.COLUMN) is SlabbingStrategy.COLUMN
        assert SlabbingStrategy.COLUMN.other() is SlabbingStrategy.ROW
        with pytest.raises(IOEngineError):
            SlabbingStrategy.from_name("diagonal")

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(1, 60), cols=st.integers(1, 60), per=st.integers(1, 70),
        by_column=st.booleans(),
    )
    def test_slabs_partition_local_array(self, rows, cols, per, by_column):
        slabs = column_slabs((rows, cols), per) if by_column else row_slabs((rows, cols), per)
        covered = np.zeros((rows, cols), dtype=int)
        for slab in slabs:
            covered[slab.row_slice, slab.col_slice] += 1
        assert np.all(covered == 1)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.integers(0, 60), cols=st.integers(0, 60), elements=st.integers(1, 400),
        by_column=st.booleans(),
    )
    def test_slab_runs_are_the_slabs_grouped_by_shape(self, rows, cols, elements, by_column):
        strategy = SlabbingStrategy.COLUMN if by_column else SlabbingStrategy.ROW
        slabs = make_slabs((rows, cols), strategy, elements)
        lines = lines_per_slab((rows, cols), strategy, elements)
        runs = slab_runs((rows, cols), strategy, lines)
        assert len(runs) <= 2
        expanded = [(first, index) for first, count in runs for index in range(count)]
        assert len(expanded) == len(slabs)
        assert [first.shape for first, _ in expanded] == [slab.shape for slab in slabs]
        assert [first for first, index in expanded if index == 0] == [
            slab for slab, previous in zip(slabs, [None, *slabs], strict=False)
            if previous is None or previous.shape != slab.shape]


# ---------------------------------------------------------------------------
# LocalArrayFile
# ---------------------------------------------------------------------------
class TestLocalArrayFile:
    def test_round_trip_full(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (8, 6), np.float32)
        data = np.arange(48, dtype=np.float32).reshape(8, 6)
        laf.write_full(data)
        np.testing.assert_array_equal(laf.read_full(), data)

    def test_round_trip_slab(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (8, 6), np.float64, order="C")
        data = np.arange(48, dtype=np.float64).reshape(8, 6)
        laf.write_full(data)
        slab = Slab(index=1, row_start=2, row_stop=5, col_start=1, col_stop=4)
        np.testing.assert_array_equal(laf.read_slab(slab), data[2:5, 1:4])
        laf.write_slab(slab, np.zeros((3, 3)))
        updated = laf.read_full()
        assert np.all(updated[2:5, 1:4] == 0)
        assert updated[0, 0] == 0.0 or updated[0, 1] == 1.0  # untouched region preserved

    def test_shape_mismatch_rejected(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4))
        with pytest.raises(IOEngineError):
            laf.write_full(np.zeros((3, 3)))
        slab = Slab(index=0, row_start=0, row_stop=2, col_start=0, col_stop=2)
        with pytest.raises(IOEngineError):
            laf.write_slab(slab, np.zeros((3, 3)))

    def test_slab_out_of_bounds(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4))
        with pytest.raises(IOEngineError):
            laf.read_slab(Slab(index=0, row_start=0, row_stop=5, col_start=0, col_stop=1))

    def test_closed_file_rejected(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4))
        laf.close()
        with pytest.raises(IOEngineError):
            laf.read_full()

    def test_delete_removes_file(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "x.dat", (4, 4))
        assert laf.exists()
        laf.delete()
        assert not laf.exists()
        laf.delete()  # idempotent

    def test_invalid_order(self, tmp_path):
        with pytest.raises(IOEngineError):
            LocalArrayFile(tmp_path / "x.dat", (4, 4), order="Z")

    @settings(max_examples=30, deadline=None)
    @given(rows=st.integers(1, 20), cols=st.integers(1, 20), order=st.sampled_from(["C", "F"]))
    def test_property_full_round_trip(self, tmp_path_factory, rows, cols, order):
        directory = tmp_path_factory.mktemp("laf")
        laf = LocalArrayFile(directory / "p.dat", (rows, cols), np.float64, order=order)
        rng = np.random.default_rng(rows * 100 + cols)
        data = rng.standard_normal((rows, cols))
        laf.write_full(data)
        np.testing.assert_allclose(laf.read_full(), data)
        laf.delete()


# ---------------------------------------------------------------------------
# IOEngine
# ---------------------------------------------------------------------------
class TestIOEngine:
    def _laf(self, tmp_path, order="F"):
        laf = LocalArrayFile(tmp_path / "x.dat", (8, 8), np.float32, order=order)
        laf.write_full(np.arange(64, dtype=np.float32).reshape(8, 8))
        return laf

    def test_per_slab_accounting(self, tmp_path):
        machine = Machine(2)
        engine = IOEngine(machine)
        laf = self._laf(tmp_path)
        slab = Slab(index=0, row_start=0, row_stop=2, col_start=0, col_stop=8)  # row slab, F order
        engine.read_slab(0, laf, slab)
        assert machine.metrics[0].io_read_requests == 1
        assert machine.metrics[0].bytes_read == slab.nbytes(4)

    def test_write_requires_data_when_performing_io(self, tmp_path):
        machine = Machine(1)
        engine = IOEngine(machine)
        laf = self._laf(tmp_path)
        slab = Slab(index=0, row_start=0, row_stop=2, col_start=0, col_stop=2)
        with pytest.raises(IOEngineError):
            engine.write_slab(0, laf, slab, None)

    def test_estimate_mode_touches_no_data(self, tmp_path):
        machine = Machine(1)
        engine = IOEngine(machine, perform_io=False)
        laf = LocalArrayFile(tmp_path / "ghost.dat", (8, 8), create=False)
        slab = Slab(index=0, row_start=0, row_stop=8, col_start=0, col_stop=2)
        assert engine.read_slab(0, laf, slab) is None
        engine.write_slab(0, laf, slab, None)
        assert machine.metrics[0].io_requests == 2
        assert not laf.exists()
