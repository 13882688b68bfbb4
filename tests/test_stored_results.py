"""Results are checked where they are stored, and nothing gathers them.

* the panel reader (``OutOfCoreArray.column_reader``) returns exactly the
  dense columns, for every distribution the scenario sets use and both
  storage orders, and audits checksums before it reads;
* the chunked tolerance sweep gives ``np.allclose``'s verdict, NaN and
  infinities included, at chunk edges too;
* an unverified run still detects corruption written into a lone
  statement's result — the checksum audit took over from the gather — and
  recovers from it charge-neutrally;
* neither an unverified run nor verification allocates anything the size of
  the result (``tracemalloc``).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.config import RunConfig
from repro.core import compile_gaxpy
from repro.exceptions import SlabCorruptionError
from repro.resilience.faults import FaultInjector, FaultPolicy
from repro.runtime import executor
from repro.runtime.executor import (
    NodeProgramExecutor,
    _panel_close,
    run_reduction_column,
    verify_outputs,
)
from repro.runtime.operands import input_operands
from repro.runtime.slab import Slab
from repro.runtime.vm import VirtualMachine

from tests.scenarios import STATIC, Scenario


# ---------------------------------------------------------------------------
# the panel reader
# ---------------------------------------------------------------------------
def _distributions():
    """One descriptor per distribution of the scenario sets, at an uneven N = 23, P = 4."""
    found = {}
    for scenario in STATIC:
        if (scenario.n, scenario.nprocs) == (23, 4):
            for desc in scenario.ir().arrays.values():
                found.setdefault(desc.distribution_name(), desc)
    return sorted(found.items())


DISTRIBUTIONS = _distributions()

#: whole, one column each end, a span across ranks, an empty one, and 4-wide
#: panels whose edges fall inside the 6-column blocks
PANELS = ([slice(0, 23), slice(0, 1), slice(22, 23), slice(5, 19), slice(7, 7)]
          + [slice(start, min(start + 4, 23)) for start in range(0, 23, 4)])


def test_the_scenarios_cover_every_distribution():
    assert [name for name, _ in DISTRIBUTIONS] == sorted(
        f"{axis}-{kind}" for axis in ("column", "row")
        for kind in ("block", "cyclic", "cyclic(2)")
    )


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("desc", [desc for _, desc in DISTRIBUTIONS],
                         ids=[name for name, _ in DISTRIBUTIONS])
def test_panel_read_equals_the_dense_columns(tmp_path, desc, order):
    dense = np.arange(desc.size, dtype=desc.dtype).reshape(desc.shape)
    with VirtualMachine(desc.nprocs, config=RunConfig(scratch_dir=tmp_path)) as vm:
        array = vm.create_array(desc, initial=dense, storage_order=order)
        whole = vm.to_dense(array)
        read = array.column_reader()
        for cols in PANELS:
            panel = read(cols)
            assert panel.dtype == desc.dtype
            np.testing.assert_array_equal(panel, whole[:, cols])
            np.testing.assert_array_equal(panel, dense[:, cols])


def test_the_reader_audits_checksums_before_reading(tmp_path):
    _, desc = DISTRIBUTIONS[0]
    with VirtualMachine(desc.nprocs, config=RunConfig(scratch_dir=tmp_path)) as vm:
        array = vm.create_array(desc, initial=np.ones(desc.shape, dtype=desc.dtype))
        laf = array.local(1).laf
        laf._inject_corruption(Slab(0, 0, laf.shape[0], 0, laf.shape[1]), "bitflip")
        with pytest.raises(SlabCorruptionError):
            array.column_reader()
        with pytest.raises(SlabCorruptionError):
            vm.to_dense(array)


# ---------------------------------------------------------------------------
# the tolerance fold of the elementwise and transpose kinds
# ---------------------------------------------------------------------------
SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       tolerance=st.sampled_from([1e-4, 1e-5]))
def test_the_fold_gives_allclose_verdict(data, dtype, tolerance):
    shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    reference = data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    # errors from well inside to well outside atol + rtol * |reference|
    factor = data.draw(arrays(np.float64, shape, elements=st.floats(-2.0, 2.0)))
    got = (reference + factor * tolerance * (1.0 + np.abs(reference))).astype(dtype)
    for _ in range(data.draw(st.integers(0, 3))):
        i, j = data.draw(st.integers(0, shape[0] - 1)), data.draw(st.integers(0, shape[1] - 1))
        value, where = data.draw(SPECIAL), data.draw(st.sampled_from(["got", "reference", "both"]))
        if where != "reference":
            got[i, j] = value
        if where != "got":
            reference[i, j] = value
    expected = bool(np.allclose(got, reference, rtol=tolerance, atol=tolerance))
    before = (got.copy(), reference.copy())
    assert _panel_close(got, reference, tolerance) is expected
    np.testing.assert_array_equal(got, before[0])  # neither operand is touched
    np.testing.assert_array_equal(reference, before[1])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dtype=st.sampled_from([np.float32, np.float64]),
       tolerance=st.sampled_from([1e-4, 1e-5]), split=st.sampled_from(["rows", "columns"]))
def test_the_chunked_sweep_gives_allclose_verdict_at_chunk_edges(data, dtype, tolerance, split):
    """Chunks shrunk to a few rows — or, for a row longer than a chunk, to
    part of one row — over a panel that spans several chunks and ends in a
    partial one, with NaN or infinities only in its first or only in its
    last chunk: the sweep still gives ``np.allclose``'s verdict."""
    if split == "rows":  # chunks of whole rows; the last has fewer
        height = data.draw(st.integers(2, 3))
        cols = width = data.draw(st.integers(1, 6))
        rows = height * data.draw(st.integers(2, 4)) + data.draw(st.integers(1, height - 1))
    else:  # one-row chunks of part of a row; the last of each row is narrower
        height, rows = 1, data.draw(st.integers(1, 3))
        width = data.draw(st.integers(2, 4))
        cols = width * data.draw(st.integers(2, 3)) + data.draw(st.integers(1, width - 1))
    reference = data.draw(arrays(np.float64, (rows, cols), elements=st.floats(-1e3, 1e3)))
    # all within tolerance, so that the special values decide, or errors
    # from well inside to well outside it
    spread = data.draw(st.sampled_from([0.5, 2.0]))
    factor = data.draw(arrays(np.float64, (rows, cols), elements=st.floats(-spread, spread)))
    got = (reference + factor * tolerance * (1.0 + np.abs(reference))).astype(dtype)
    last = ((rows - 1) // height * height, (cols - 1) // width * width)
    top, left = (0, 0) if data.draw(st.sampled_from(["first", "last"])) == "first" else last
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(top, min(top + height, rows) - 1))
        j = data.draw(st.integers(left, min(left + width, cols) - 1))
        value, where = data.draw(SPECIAL), data.draw(st.sampled_from(["got", "reference", "both"]))
        if where != "reference":
            got[i, j] = value
        if where != "got":
            reference[i, j] = value
    expected = bool(np.allclose(got, reference, rtol=tolerance, atol=tolerance))
    before = (got.copy(), reference.copy())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "_CHUNK_BYTES", 8 * height * width)
        assert _panel_close(got, reference, tolerance) is expected
        scratch = executor._comparison_scratch()
        assert _panel_close(got, reference, tolerance, scratch) is expected
    np.testing.assert_array_equal(got, before[0])  # neither operand is touched
    np.testing.assert_array_equal(reference, before[1])


# ---------------------------------------------------------------------------
# the integrity check an unverified run keeps
# ---------------------------------------------------------------------------
LONE = {
    "gaxpy-column": Scenario("gaxpy", 32, 4, ratio=0.25, strategy="column"),
    "gaxpy-row": Scenario("gaxpy", 32, 4, ratio=0.25, strategy="row"),
    "elementwise": Scenario("elementwise", 32, 4, ratio=0.25),
}


def _charged(vm):
    snap = vm.snapshot_charges()
    return (snap["processors"], snap["disks"], snap["network"],
            snap["clocks"].clocks, snap["metrics"].counters)


def _run(tmp_path, scenario, mode=None, at=None):
    """Run ``scenario`` unverified; with ``mode``, damage the ``at``-th write
    of its result (counting from 1) the way the injector does.  Returns the
    run's charges, resilience counters, result and how many result writes it
    made."""
    compiled = scenario.compile()
    result = compiled.program.statement.result.array
    writes = []

    def corrupt_write(self, site):
        if not site.startswith(f"{result}[p"):
            return None
        writes.append(site)
        if len(writes) != at:
            return None
        if mode == "torn":
            self.stats.torn_writes_injected += 1
        else:
            self.stats.bitflips_injected += 1
        return mode

    policy = FaultPolicy(seed=5, torn_write_rate=float(mode == "torn"),
                         bitflip_rate=float(mode == "bitflip"), max_failures_per_site=1)
    config = RunConfig(scratch_dir=tmp_path, fault_policy=policy)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FaultInjector, "corrupt_write", corrupt_write)
        with VirtualMachine(compiled.nprocs, compiled.params, config) as vm:
            run = NodeProgramExecutor(compiled).run(
                vm, input_operands(compiled.program, 9), verify=False)
            outcome = _charged(vm), vm.resilience.as_dict(), vm.to_dense(result), len(writes)
    assert run.verified is None
    return outcome


@pytest.mark.parametrize("mode", ["torn", "bitflip"])
@pytest.mark.parametrize("name", sorted(LONE))
def test_corrupting_the_last_result_slab_is_detected_unverified(tmp_path, name, mode):
    """Nothing reads the last slab of a lone statement's result after it is
    written: only the audit inside the recovery attempt can catch it."""
    clean_charges, clean_counters, clean_result, writes = _run(tmp_path / "clean", LONE[name])
    charges, counters, result, _ = _run(tmp_path / "faulty", LONE[name], mode, at=writes)
    assert counters["torn_writes_injected" if mode == "torn" else "bitflips_injected"] == 1
    assert counters["corruptions_detected"] == 1
    assert counters["statements_recovered"] == 1
    assert clean_counters["corruptions_detected"] == 0
    assert charges == clean_charges
    np.testing.assert_array_equal(result, clean_result)


# ---------------------------------------------------------------------------
# memory: nothing the size of the result
# ---------------------------------------------------------------------------
N, P = 1024, 4


def test_an_unverified_run_allocates_no_array_after_its_slab_loop(tmp_path, monkeypatch):
    """From the engine's ending (:func:`executor._finish`) on, an unverified
    column GAXPY allocates less than one rank's local array: the checksum
    audit reads slab by slab, and no N x N array is assembled."""
    compiled = compile_gaxpy(N, P, slab_ratio=0.25, force_strategy="column")
    finish, marks = executor._finish, []

    def marked_finish(*args, **kwargs):
        tracemalloc.reset_peak()
        marks.append(tracemalloc.get_traced_memory()[0])
        return finish(*args, **kwargs)

    monkeypatch.setattr(executor, "_finish", marked_finish)
    with VirtualMachine(P, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
        tracemalloc.start()
        try:
            run_reduction_column(vm, compiled, input_operands(compiled.program, 3), False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(marks) == 1
    assert peak - marks[0] < 4 * N * N // P


@pytest.mark.parametrize("panel_bytes", [executor._PANEL_BYTES, 256 * 1024])
def test_verifying_a_stored_result_allocates_no_result(tmp_path, monkeypatch, panel_bytes):
    """Checking a stored float32 GAXPY result allocates the float64 copy of
    the streamed operand plus at most three panels — one reference panel,
    the result's panel read against it and the comparison's temporaries — as
    checking a dense one does: the result is read a panel at a time, and
    each panel is dropped before the next is computed.  With 256 KiB panels
    the result (4 MiB) is sixteen of them, so gathering it breaks the bound."""
    monkeypatch.setattr(executor, "_PANEL_BYTES", panel_bytes)
    compiled = compile_gaxpy(N, P, slab_ratio=0.25, force_strategy="row")
    inputs = input_operands(compiled.program, 3)
    with VirtualMachine(P, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
        NodeProgramExecutor(compiled).run(vm, inputs, verify=False)
        tracemalloc.start()
        try:
            verified, _ = verify_outputs(compiled, inputs, {"c": vm.get_array("c")})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert verified is True
    assert peak <= 8 * N * N + 3 * panel_bytes
