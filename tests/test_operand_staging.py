"""The reduction engines read each operand slab once and hold it only while
their slab loop runs.

* the row-slab engine reads every coefficient slab from its file once per
  rank — Figure 12's re-read of it per streamed slab is charged, not
  performed — and the streamed array as often as before; ESTIMATE reads no
  file at all;
* the column, row and single-operand engines release their staging, product
  and result buffers before the result is verified: at ``verify_outputs``
  entry the run holds less than one rank's float64 local array
  (``tracemalloc``).
"""

import collections
import tracemalloc

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
}


def held_at_verification(tmp_path, monkeypatch, scenario, engine):
    """Bytes the run still holds when ``verify_outputs`` is entered, and the result."""
    compiled = scenario.compile()
    inputs = input_operands(compiled.program, 3)
    held = []
    verify = executor.verify_outputs

    def probe(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return verify(*args, **kwargs)

    monkeypatch.setattr(executor, "verify_outputs", probe)
    with VirtualMachine(P, MachineParameters(), RunConfig(scratch_dir=tmp_path)) as vm:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = engine(vm, compiled, inputs)
        finally:
            tracemalloc.stop()
    assert len(held) == 1
    return held[0], result


@pytest.mark.parametrize("version", sorted(MEMORY))
def test_staging_is_released_before_verification(tmp_path, monkeypatch, version):
    held, result = held_at_verification(tmp_path, monkeypatch, *MEMORY[version])
    assert result.verified is True
    assert held < LOCAL_F64, f"{held / 2**20:.1f} MiB still held at verification"


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
