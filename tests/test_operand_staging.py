"""The reduction engines read each operand slab once and hold it only while
their slab loop runs.

* the row-slab engine reads every coefficient slab from its file once per
  rank — Figure 12's re-read of it per streamed slab is charged, not
  performed — and the streamed array as often as before; ESTIMATE reads no
  file at all;
* the column and row engines' slab loops hold what the plan sizes — one
  column block of float64 products, one result slab and one staged slab
  per rank and one shared float64 panel — besides the one operand they keep
  whole (``tracemalloc`` peak);
* the column, row, single-operand and transpose engines release their
  staging, product and result buffers before the result is verified: at
  ``verify_outputs`` entry the run holds less than one rank's float64 local
  array.
"""

import collections
import tracemalloc

import numpy as np
import pytest

from repro.config import ExecutionMode, RunConfig
from repro.exceptions import SlabCorruptionError
from repro.machine.parameters import MachineParameters
from repro.runtime import VirtualMachine, executor
from repro.runtime.executor import (
    ProgramExecutor,
    _plan_for,
    _statement_kind,
    run_reduction_column,
    run_reduction_row,
    run_reduction_single_operand,
    run_transpose_plan,
)
from repro.runtime.laf import LocalArrayFile
from repro.runtime.operands import input_operands
from repro.runtime.slab import SlabbingStrategy, column_slabs, row_slabs

from tests.scenarios import ENGINE, Scenario

# ---------------------------------------------------------------------------
# real reads: the coefficient once, the streamed array as often as before
# ---------------------------------------------------------------------------
#: two lone statements and the chain's even split (optimizer "none") at N = 64
READ_ONCE = {
    "block-24": next(s for s in ENGINE if s.label == "block-24"),
    "cyclic": next(s for s in ENGINE if s.label == "cyclic"),
    "chain-even-split": Scenario("mm_add_mul", 64, 4, budget=3072, optimizer="none"),
}


@pytest.fixture
def file_reads(monkeypatch):
    """Real ``LocalArrayFile.read_slab`` calls, per array name."""
    reads = collections.Counter()
    original = LocalArrayFile.read_slab

    def counting(self, *args, **kwargs):
        reads[self.array_name] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(LocalArrayFile, "read_slab", counting)
    return reads


def _row_statement(compiled):
    """The row-slab reduction statement of a lone or whole-program compile."""
    statements = getattr(compiled, "statements", (compiled,))
    return next(s for s in statements if _statement_kind(s) == "reduction")


def _slab_count(statement, name, slabs):
    plan = _plan_for(statement, SlabbingStrategy.ROW)
    local = statement.program.arrays[name].local_shapes()[0]
    return len(slabs(local, plan.entry(name).lines_per_slab))


@pytest.mark.parametrize("label", sorted(READ_ONCE))
def test_the_coefficient_is_read_once(tmp_path, file_reads, label):
    scenario = READ_ONCE[label]
    compiled = scenario.compile()
    statement = _row_statement(compiled)
    roles, nprocs = statement.analysis, scenario.nprocs
    inputs = input_operands(compiled.program, 5)
    whole = getattr(compiled, "statements", None) is not None
    if whole:
        assert _plan_for(statement, SlabbingStrategy.ROW) is statement.plan

    def run(mode):
        config = RunConfig(scratch_dir=tmp_path / mode.value, mode=mode)
        with VirtualMachine(nprocs, MachineParameters(), config) as vm:
            data = inputs if mode is ExecutionMode.EXECUTE else None
            if whole:
                return ProgramExecutor(compiled).run(vm, data, verify=True)
            return run_reduction_row(vm, compiled, data)

    file_reads.clear()
    assert run(ExecutionMode.EXECUTE).verified is True
    assert file_reads[roles.coefficient] == nprocs * _slab_count(
        statement, roles.coefficient, column_slabs)
    assert file_reads[roles.streamed] == nprocs * _slab_count(
        statement, roles.streamed, row_slabs)
    # more than one streamed slab: the program re-reads the coefficient
    assert _slab_count(statement, roles.streamed, row_slabs) > 1

    file_reads.clear()
    run(ExecutionMode.ESTIMATE)
    assert sum(file_reads.values()) == 0


# ---------------------------------------------------------------------------
# memory: nothing the engine staged is alive while the result is verified
# ---------------------------------------------------------------------------
N, P = 1024, 4
#: one rank's float64 local array at N = 1024, P = 4
LOCAL_F64 = N * (N // P) * 8

MEMORY = {
    "column": (Scenario("gaxpy", N, P, ratio=0.25, strategy="column"), run_reduction_column),
    "row": (Scenario("gaxpy", N, P, ratio=0.25, strategy="row"), run_reduction_row),
    "single-operand": (Scenario("square", N, P, ratio=0.25, strategy="row"),
                       run_reduction_single_operand),
    "transpose": (Scenario("transpose", N, P, ratio=0.25), run_transpose_plan),
}


def traced_at(tmp_path, monkeypatch, hook, scenario, engine):
    """``(bytes held, peak bytes)`` since engine entry when ``executor.<hook>``
    is first called, and the run's result."""
    compiled = scenario.compile()
    inputs = input_operands(compiled.program, 3)
    marks = []
    original = getattr(executor, hook)

    def probe(*args, **kwargs):
        held, peak = tracemalloc.get_traced_memory()
        marks.append((held - start, peak - start))
        return original(*args, **kwargs)

    monkeypatch.setattr(executor, hook, probe)
    with VirtualMachine(P, MachineParameters(), RunConfig(scratch_dir=tmp_path)) as vm:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = engine(vm, compiled, inputs)
        finally:
            tracemalloc.stop()
    assert len(marks) == 1
    return marks[0], result


@pytest.mark.parametrize("version", sorted(MEMORY))
def test_staging_is_released_before_verification(tmp_path, monkeypatch, version):
    (held, _), result = traced_at(tmp_path, monkeypatch, "verify_outputs", *MEMORY[version])
    assert result.verified is True
    assert held < LOCAL_F64, f"{held / 2**20:.1f} MiB still held at verification"


# ---------------------------------------------------------------------------
# memory: the slab loop holds what the plan sizes
# ---------------------------------------------------------------------------
SLAB_LOOP = {"column": run_reduction_column, "row": run_reduction_row}

#: Python-side bookkeeping of a slab loop (step lists, blocks, charges)
BOOKKEEPING = 1 << 20


def slab_loop_bound(version, compiled):
    """Bytes a reduction engine's slab loop may hold, from the plan and the
    local shapes.

    The operand the engine keeps whole — the column engine's float64 copy of
    the streamed local array, the row engine's coefficient in its own dtype
    — plus per rank one column block of float64 products, one result slab
    and one staged slab (the column engine's coefficient slab, the row
    engine's float64 streamed slab), plus the shared float64 panel of
    coefficient columns, one float64 summed block and the bookkeeping.
    """
    roles, arrays = compiled.analysis, compiled.program.arrays
    plan = _plan_for(compiled, SlabbingStrategy(version))
    (s_rows, s_cols), (b_rows, b_cols), (c_rows, c_cols) = (
        arrays[name].local_shapes()[0]
        for name in (roles.streamed, roles.coefficient, roles.result)
    )
    lines = {name: plan.entry(name).lines_per_slab for name in arrays}
    itemsize = arrays[roles.result].itemsize
    if version == "column":
        s_lines = min(lines[roles.streamed], s_cols)
        b_lines = min(lines[roles.coefficient], b_cols)
        c_lines = min(lines[roles.result], c_cols)
        block = min(b_lines, c_lines)
        kept = P * s_rows * s_cols * 8
        per_rank = c_rows * block * 8 + c_rows * c_lines * itemsize + b_rows * b_lines * itemsize
        panel, summed = b_rows * block * 8, c_rows * block * 8
    else:
        rows = min(lines[roles.streamed], s_rows)
        b_lines = min(lines[roles.coefficient], b_cols)
        kept = P * b_rows * b_cols * itemsize
        per_rank = rows * b_lines * 8 + rows * c_cols * itemsize + rows * s_cols * 8
        panel, summed = b_rows * b_lines * 8, rows * min(b_lines, c_cols) * 8
    return kept + P * per_rank + panel + summed + BOOKKEEPING


@pytest.mark.parametrize("ratio", [1, 0.25, 1 / 32])
@pytest.mark.parametrize("version", sorted(SLAB_LOOP))
def test_the_slab_loop_holds_what_the_plan_sizes(tmp_path, monkeypatch, version, ratio):
    scenario = Scenario("gaxpy", N, P, ratio=ratio, strategy=version)
    (_, peak), result = traced_at(tmp_path, monkeypatch, "_finish", scenario,
                                  SLAB_LOOP[version])
    assert result.verified is True
    bound = slab_loop_bound(version, scenario.compile())
    assert peak <= bound, f"slab loop peaked at {peak / 2**20:.1f} MiB > {bound / 2**20:.1f}"


# ---------------------------------------------------------------------------
# one GEMM per column block rounds like one GEMM per coefficient slab
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dist", ["block", "cyclic", "cyclic(2)"])
def test_column_blocks_round_like_the_coefficient_slab_gemm(tmp_path, dist):
    """A float64 result is bit for bit the rank-order sum of each rank's
    float64 GEMM over its whole local coefficient — which rounds each column
    as a GEMM over any two or more of its columns does.  Under CYCLIC every
    column block is one column wide; a one-column GEMM would take BLAS's
    matrix-vector path and round some columns differently."""
    scenario = Scenario("matmul", 48, 4, dtype="float64", dist=dist, ratio=0.25,
                        strategy="column")
    compiled = scenario.compile()
    roles, arrays = compiled.analysis, compiled.program.arrays
    inputs = input_operands(compiled.program, 7)
    with VirtualMachine(4, MachineParameters(), RunConfig(scratch_dir=tmp_path)) as vm:
        assert run_reduction_column(vm, compiled, inputs).verified is True
        result = vm.to_dense(roles.result)
    parts = [
        arrays[roles.streamed].local_part(inputs[roles.streamed], rank).astype("float64")
        @ arrays[roles.coefficient].local_part(inputs[roles.coefficient], rank)
        .astype("float64", order="F")
        for rank in range(4)
    ]
    np.testing.assert_array_equal(result, sum(parts[1:], parts[0]))


# ---------------------------------------------------------------------------
# a corrupt coefficient is caught where it is staged, before anything is charged
# ---------------------------------------------------------------------------
def test_a_corrupt_coefficient_slab_is_refused_before_any_charge(tmp_path):
    scenario = next(s for s in ENGINE if s.label == "block-24")
    compiled = scenario.compile()
    roles, nprocs = compiled.analysis, scenario.nprocs
    inputs = input_operands(compiled.program, 5)
    plan = _plan_for(compiled, SlabbingStrategy.ROW)
    b_desc = compiled.program.arrays[roles.coefficient]
    slabs = column_slabs(b_desc.local_shapes()[0], plan.entry(b_desc.name).lines_per_slab)
    with VirtualMachine(nprocs, MachineParameters(), RunConfig(scratch_dir=tmp_path)) as vm:
        coefficient = vm.ensure_array(b_desc, initial=inputs[b_desc.name], storage_order="F")
        # as a producer statement leaves it: a checksum recorded per slab
        laf = coefficient.local(nprocs - 1).laf
        for slab in slabs:
            laf.write_slab(slab, laf.read_slab(slab))
        laf._inject_corruption(slabs[-1], "bitflip")
        with pytest.raises(SlabCorruptionError), vm.array_reuse():
            run_reduction_row(vm, compiled, inputs)
        assert vm.elapsed() == 0.0
        assert sum(vm.io_statistics().values()) == 0
