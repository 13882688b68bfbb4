"""Column blocks: the unit of work of the two-operand reduction engines.

A column block charges and sums a run of result columns in one call
(:meth:`Machine.charge_column_block`, ``CommBackend.global_sum_columns``).
Its definition is the per-column schedule it replaced — each rank's scalar
``charge_read`` / ``charge_compute`` steps, then a scalar ``global_sum``, once
per column — which this file keeps as :class:`PerColumnComm` and holds the
block to, ``==`` on every float.  No test here reads a clock: host cost is
guarded by counting scalar charge calls, which repeats exactly.
"""

import collections
import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import WorkloadPoint, get_workload
from repro.config import ExecutionMode, RunConfig
from repro.exceptions import CollectiveError, ReproError
from repro.machine.cluster import Machine
from repro.machine.parameters import MachineParameters
from repro.runtime import VirtualMachine
from repro.runtime.comm import SimulatedComm
from repro.runtime.executor import (
    _column_blocks,
    _plan_for,
    run_reduction_column,
    run_reduction_row,
)
from repro.runtime.operands import Operand
from repro.runtime.slab import SlabbingStrategy, column_slabs

from tests.scenarios import ENGINE, Scenario

ENGINES = {
    "column": run_reduction_column,
    "row": run_reduction_row,
}


class PerColumnComm(SimulatedComm):
    """The reference: a column block spelled one column at a time with the
    scalar charge methods, exactly as the engines' per-column loops did."""

    def __init__(self):
        super().__init__()
        self.block_widths = []

    def global_sum_columns(self, contributions, steps, *, ncols, rows, itemsize):
        machine = self.machine
        self.block_widths.append(ncols)
        columns = []
        for m in range(ncols):
            # ranks are independent between collectives, so rank-major order
            # charges each rank what the engines' slab-major order did
            for rank in sorted(steps):
                for step in steps[rank]:
                    if step[0] == "read":
                        machine.charge_read(rank, step[1], step[2])
                    else:
                        machine.charge_compute(rank, step[1])
            columns.append(self.global_sum(
                None if contributions is None
                else {rank: piece[:, m] for rank, piece in contributions.items()},
                shape=(rows,), itemsize=itemsize,
            ))
        if contributions is None:
            return None
        return np.stack(columns, axis=1) if columns else np.zeros((rows, 0))


def charged_state(vm):
    """Every charged quantity of ``vm``, in a form ``==`` compares field by field."""
    snap = vm.snapshot_charges()
    return {
        "processors": snap["processors"],
        "disks": snap["disks"],
        "network": snap["network"],
        "clocks": snap["clocks"].clocks,
        "metrics": snap["metrics"].counters,
    }


def estimate_vm(nprocs, preset="delta", comm=None):
    return VirtualMachine(nprocs, preset, RunConfig(mode=ExecutionMode.ESTIMATE), comm=comm)


# ---------------------------------------------------------------------------
# (a) block replay == the scalar call sequence, on every charged field
# ---------------------------------------------------------------------------
step_lists = st.lists(
    st.one_of(
        st.tuples(st.just("read"), st.integers(0, 2_000_000), st.integers(0, 9)),
        st.tuples(st.just("compute"),
                  st.floats(0.0, 1e8, allow_nan=False, allow_infinity=False)),
    ),
    max_size=5,
)
preludes = st.lists(
    st.tuples(st.sampled_from(["read", "write", "compute", "sum"]),
              st.integers(0, 3), st.integers(0, 500_000)),
    max_size=6,
)


def apply_prelude(vm, prelude):
    """Scalar charges that leave the ranks' clocks and busy times uneven."""
    for kind, rank, amount in prelude:
        rank %= vm.nprocs
        if kind == "read":
            vm.machine.charge_read(rank, amount, 1)
        elif kind == "write":
            vm.machine.charge_write(rank, amount, 2)
        elif kind == "compute":
            vm.machine.charge_compute(rank, amount * 1.37)
        else:
            vm.comm.global_sum(None, shape=(amount % 97,), itemsize=4)


@settings(max_examples=150, deadline=None)
@given(
    nprocs=st.integers(1, 4),
    preset=st.sampled_from(["delta", "sp1"]),
    steps=st.dictionaries(st.integers(0, 3), step_lists, max_size=4),
    ncols=st.integers(0, 7),
    rows=st.integers(0, 3000),
    itemsize=st.sampled_from([4, 8]),
    prelude=preludes,
)
def test_block_replay_equals_scalar_sequence(nprocs, preset, steps, ncols, rows, itemsize,
                                             prelude):
    steps = {rank: list(lane) for rank, lane in steps.items() if rank < nprocs}
    states = []
    for comm in (PerColumnComm(), SimulatedComm()):
        vm = estimate_vm(nprocs, preset, comm)
        apply_prelude(vm, prelude)
        vm.comm.global_sum_columns(None, steps, ncols=ncols, rows=rows, itemsize=itemsize)
        # ... and the block leaves the machine ready for more scalar charges
        apply_prelude(vm, prelude[:2])
        states.append(charged_state(vm))
    assert states[0] == states[1]


def test_block_rejects_what_the_scalar_charges_reject():
    machine = Machine(2)
    for bad in ([("read", -1, 1)], [("read", 8, -1)], [("compute", -2.0)], [("seek", 1)]):
        with pytest.raises(ReproError, match="negative|unknown"):
            machine.column_lane(0, bad)
    lanes = [machine.column_lane(rank, [("compute", 8.0)]) for rank in range(2)]
    with pytest.raises(ReproError, match="one lane per rank"):
        machine.charge_column_block(lanes[:1], 3, 64, 16)
    with pytest.raises(ReproError, match="negative"):
        machine.charge_column_block(lanes, -1, 64, 16)
    assert machine.elapsed() == 0.0


# ---------------------------------------------------------------------------
# (d) the folds on a bare Machine: charge_lane and charge_column_block ==
#     the scalar calls they replace, on every charged field
# ---------------------------------------------------------------------------
lane_steps = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["read", "write"]), st.integers(0, 3_000_000),
                  st.integers(0, 3)),
        st.tuples(st.just("compute"),
                  st.one_of(st.just(0.0), st.floats(0.0, 1e9, allow_nan=False,
                                                    allow_infinity=False))),
    ),
    max_size=5,
)
machine_preludes = st.lists(
    st.tuples(st.sampled_from(["read", "write", "compute", "sum"]),
              st.integers(0, 7), st.floats(0.0, 2e6, allow_nan=False, allow_infinity=False)),
    max_size=8,
)


def machine_state(machine):
    """Every field ``Machine`` charges, ``==``-comparable (floats included)."""
    return copy.deepcopy({
        "processors": machine.processors,
        "disks": machine.disks,
        "network": machine.network,
        "clocks": machine.clocks.clocks,
        "metrics": machine.metrics.counters,
    })


def prepared_machine(nprocs, preset, prelude):
    """A machine whose ranks' clocks, busy times and counters are uneven."""
    machine = Machine(nprocs, preset)
    for kind, rank, amount in prelude:
        rank %= nprocs
        if kind == "read":
            machine.charge_read(rank, int(amount), 1)
        elif kind == "write":
            machine.charge_write(rank, int(amount), 2)
        elif kind == "compute":
            machine.charge_compute(rank, amount)
        else:
            machine.charge_global_sum(int(amount) % 4096, nelements=int(amount) % 1024)
    return machine


def scalar_steps(machine, rank, steps):
    for step in steps:
        if step[0] == "read":
            machine.charge_read(rank, step[1], step[2])
        elif step[0] == "write":
            machine.charge_write(rank, step[1], step[2])
        else:
            machine.charge_compute(rank, step[1])


@st.composite
def lane_cases(draw):
    nprocs = draw(st.integers(1, 8))
    ranks = draw(st.sets(st.integers(0, nprocs - 1)))
    runs = st.lists(st.tuples(lane_steps, st.integers(0, 40)), max_size=3)
    shared = draw(runs)  # ranks mostly share a lane, as the engines' do
    lanes = {rank: draw(st.one_of(st.just(shared), runs)) for rank in sorted(ranks)}
    return nprocs, lanes


@settings(max_examples=120, deadline=None)
@given(case=lane_cases(), preset=st.sampled_from(["delta", "sp1"]), prelude=machine_preludes)
def test_lane_equals_the_scalar_calls(case, preset, prelude):
    nprocs, lanes = case
    folded = prepared_machine(nprocs, preset, prelude)
    scalar = prepared_machine(nprocs, preset, prelude)
    folded.charge_lane(lanes)
    for rank, runs in lanes.items():
        for steps, count in runs:
            for _ in range(count):
                scalar_steps(scalar, rank, steps)
    assert machine_state(folded) == machine_state(scalar)


@settings(max_examples=40, deadline=None)
@given(case=lane_cases(), bad=st.sampled_from([("read", -1, 1), ("write", 8, -1),
                                               ("compute", -2.0), ("seek", 1)]),
       where=st.integers(0, 100), prelude=machine_preludes)
def test_a_lane_with_one_refused_step_leaves_the_machine_unmoved(case, bad, where, prelude):
    nprocs, lanes = case
    machine = prepared_machine(nprocs, "delta", prelude)
    before = machine_state(machine)
    steps = [step for runs in lanes.values() for run, _ in runs for step in run]
    steps.insert(where % (len(steps) + 1), bad)
    poisoned = {**lanes, nprocs - 1: [(steps, 1)]}
    with pytest.raises(ReproError, match="negative|unknown"):
        machine.charge_lane(poisoned)
    assert machine_state(machine) == before
    with pytest.raises(ReproError, match="negative run length"):
        machine.charge_lane({0: [([("compute", 1.0)], -1)]})
    with pytest.raises(ReproError, match="outside machine"):
        machine.charge_lane({**lanes, nprocs: []})
    assert machine_state(machine) == before


@st.composite
def block_cases(draw):
    nprocs = draw(st.integers(1, 8))
    column_steps = st.lists(
        st.one_of(
            st.tuples(st.just("read"), st.integers(0, 3_000_000), st.integers(0, 3)),
            st.tuples(st.just("compute"), st.one_of(
                st.just(0.0), st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False))),
        ),
        max_size=4,
    )
    shared = draw(column_steps)
    uniform = draw(st.booleans())
    steps = {rank: shared if uniform else draw(column_steps) for rank in range(nprocs)}
    owned = draw(st.one_of(st.none(), st.sets(st.integers(0, nprocs - 1))))
    return nprocs, steps, owned


@settings(max_examples=100, deadline=None)
@given(case=block_cases(), ncols=st.integers(0, 300), rows=st.integers(0, 2000),
       preset=st.sampled_from(["delta", "sp1"]),
       prelude=st.one_of(st.just([]), machine_preludes))
def test_column_block_equals_the_scalar_calls(case, ncols, rows, preset, prelude):
    """Equal and unequal lanes, equal and unequal clocks, every owned subset:
    the owned ranks' rows and the network are the scalar schedule's, every
    other rank's row is untouched."""
    nprocs, steps, owned = case
    folded = prepared_machine(nprocs, preset, prelude)
    scalar = prepared_machine(nprocs, preset, prelude)
    untouched = machine_state(folded)
    lanes = [folded.column_lane(rank, steps[rank]) for rank in range(nprocs)]
    folded.charge_column_block(lanes, ncols, 4 * rows, rows, owned=owned)
    for _ in range(ncols):
        for rank in range(nprocs):
            scalar_steps(scalar, rank, steps[rank])
        scalar.charge_global_sum(4 * rows, nelements=rows)
    got, want = machine_state(folded), machine_state(scalar)
    assert got["network"] == want["network"]
    for rank in range(nprocs):
        expected = want if owned is None or rank in owned else untouched
        for field in ("processors", "disks", "clocks", "metrics"):
            assert got[field][rank] == expected[field][rank], (field, rank)


# ---------------------------------------------------------------------------
# a rejected collective leaves the machine where it was
# ---------------------------------------------------------------------------
def test_collective_error_leaves_charges_unchanged():
    vm = estimate_vm(3)
    apply_prelude(vm, [("read", 0, 4096), ("compute", 1, 900), ("sum", 0, 40)])
    before = charged_state(vm)
    good = {rank: np.ones(5) for rank in range(3)}
    steps = {rank: [("read", 64, 1), ("compute", 10.0)] for rank in range(3)}
    block = {rank: np.ones((5, 2)) for rank in range(3)}
    rejected = [
        lambda: vm.comm.global_sum({0: good[0]}, shape=(5,), itemsize=4),
        lambda: vm.comm.global_sum({0: good[0], 1: good[1], 7: good[2]}, shape=(5,),
                                   itemsize=4),
        lambda: vm.comm.global_sum({**good, 2: np.ones(6)}, shape=(5,), itemsize=4),
        lambda: vm.comm.broadcast(0, np.ones(6), shape=(5,), itemsize=4),
        lambda: vm.comm.global_sum_columns({0: block[0]}, steps, ncols=2, rows=5,
                                           itemsize=4),
        lambda: vm.comm.global_sum_columns({**block, 1: np.ones((5, 3))}, steps, ncols=2,
                                           rows=5, itemsize=4),
        lambda: vm.comm.global_sum_columns(block, {0: [("read", -1, 1)]}, ncols=2,
                                           rows=5, itemsize=4),
    ]
    for call in rejected:
        with pytest.raises(ReproError) as excinfo:
            call()
        assert isinstance(excinfo.value, CollectiveError) or "negative" in str(excinfo.value)
        assert charged_state(vm) == before


def test_process_comm_validates_before_charging():
    """The rank worker's twins: a single-rank mesh needs no peer process."""
    from repro.runtime.distributed import PipeTransport
    from repro.runtime.distributed.proc_comm import ProcessComm

    vm = VirtualMachine(1, "delta", RunConfig(mode=ExecutionMode.ESTIMATE), rank=0,
                        comm=ProcessComm(PipeTransport(0, 1, {})))
    vm.machine.charge_read(0, 4096, 1)
    before = charged_state(vm)
    steps = {0: [("compute", 10.0)]}
    rejected = [
        lambda: vm.comm.global_sum({0: np.ones(6)}, shape=(5,), itemsize=4),
        lambda: vm.comm.global_sum(None, shape=(5,), itemsize=4),
        lambda: vm.comm.broadcast(0, np.ones(6), shape=(5,), itemsize=4),
        lambda: vm.comm.global_sum_columns({0: np.ones((5, 3))}, steps, ncols=2, rows=5,
                                           itemsize=4),
    ]
    for call in rejected:
        with pytest.raises(CollectiveError):
            call()
        assert charged_state(vm) == before
    # ... and what it accepts, it charges like the simulator
    twin = estimate_vm(1)
    twin.machine.charge_read(0, 4096, 1)
    for target in (vm, twin):
        total = target.comm.global_sum_columns({0: np.full((5, 2), 2.0)}, steps, ncols=2,
                                               rows=5, itemsize=4)
        np.testing.assert_array_equal(total, np.full((5, 2), 2.0))
    assert charged_state(vm) == charged_state(twin)


def test_io_engine_validates_before_charging(tmp_path):
    """An access the file would refuse — a write with no data or data of another
    shape than its target, a slab outside the local array, a closed file — is
    rejected before the machine is charged for it; ESTIMATE mode refuses the
    slab outside the local array too."""
    from repro.core.ir import build_gaxpy_ir
    from repro.exceptions import IOEngineError
    from repro.runtime import Slab

    descriptor = build_gaxpy_ir(16, 2).arrays["c"]

    def check(mode):
        with VirtualMachine(2, "delta", RunConfig(scratch_dir=tmp_path, mode=mode)) as vm:
            array = vm.create_array(descriptor)
            laf, closed = array.local(1).laf, array.local(0).laf
            rows, cols = laf.shape
            slab = Slab(index=0, row_start=0, row_stop=rows, col_start=0, col_stop=2)
            outside = Slab(index=1, row_start=0, row_stop=rows,
                           col_start=cols - 1, col_stop=cols + 1)
            rejected = [
                lambda: vm.engine.read_slab(1, laf, outside),
                lambda: vm.engine.write_slab(1, laf, outside, np.ones(outside.shape, laf.dtype)),
                lambda: vm.engine.check_extent(laf, (rows, cols + 1)),  # a lane's refusal
            ]
            if mode is ExecutionMode.EXECUTE:
                closed.close()
                rejected += [
                    lambda: vm.engine.check_extent(closed, closed.shape),
                    lambda: vm.engine.save_slab(1, laf, slab, None),
                    lambda: vm.engine.save_slab(1, laf, slab, np.ones((rows, 3), laf.dtype)),
                    lambda: vm.engine.write_slab(1, laf, slab, None),
                    lambda: vm.engine.write_slab(1, laf, slab, np.ones((rows, 3), laf.dtype)),
                    lambda: vm.engine.read_slab(0, closed, slab),
                    lambda: vm.engine.write_slab(0, closed, slab, np.ones(slab.shape, laf.dtype)),
                ]
            vm.machine.charge_read(1, 4096, 1)
            before = charged_state(vm)
            for call in rejected:
                with pytest.raises(IOEngineError):
                    call()
                assert charged_state(vm) == before
            vm.engine.write_slab(1, laf, slab, np.ones(slab.shape, laf.dtype))
            assert charged_state(vm) != before

    check(ExecutionMode.EXECUTE)
    check(ExecutionMode.ESTIMATE)


# ---------------------------------------------------------------------------
# (c) the engines: results and charges equal to the per-column schedule
# ---------------------------------------------------------------------------
def compile_gaxpy(n, p, dist, ratio):
    return Scenario("matmul", n, p, dist=dist, ratio=ratio).compile()


def dense_inputs(n, seed):
    return {name: Operand(name, (n, n), np.float32, seed) for name in "ab"}


@pytest.mark.parametrize("version", sorted([*ENGINES, "incore"]))
@pytest.mark.parametrize("scenario", ENGINE, ids=str)
def test_engine_matches_per_column_schedule(tmp_path, version, scenario):
    engine = version
    if version == "incore":  # the row-slab program at slab ratio 1
        scenario, engine = dataclasses.replace(scenario, ratio=1.0, strategy="row"), "row"
    n, p = scenario.n, scenario.nprocs
    program = scenario.compile()
    inputs = dense_inputs(n, n * p)
    runs = {}
    for name, comm in (("reference", PerColumnComm()), ("block", SimulatedComm())):
        config = RunConfig(scratch_dir=tmp_path / name)
        with VirtualMachine(p, MachineParameters(), config, comm=comm) as vm:
            result = ENGINES[engine](vm, program, inputs)
            runs[name] = (result, charged_state(vm), comm)
    (reference, reference_state, recorder), (block, block_state, _) = (
        runs["reference"], runs["block"])
    assert block.verified is True
    assert block.result.tobytes() == reference.result.tobytes()
    assert block_state == reference_state
    assert block.simulated_seconds == reference.simulated_seconds
    if scenario.dist == "cyclic":
        assert set(recorder.block_widths) == {1}
    else:
        assert max(recorder.block_widths) > 1


@pytest.mark.parametrize("dist,nprocs", [("block", 4), ("cyclic", 4), ("cyclic", 3)])
def test_blocks_are_the_maximal_runs(dist, nprocs):
    n = 24
    c_desc = compile_gaxpy(n, nprocs, dist, 0.5).program.arrays["c"]
    owners, local_cols = (table.tolist() for table in c_desc.owner_table(1))
    for b_lines, c_lines in [(5, 2), (24, 6), (1, 1), (7, None)]:
        ranges = [(lo, min(lo + b_lines, n)) for lo in range(0, n, b_lines)]
        blocks = _column_blocks(c_desc, ranges, c_lines)

        def key(j, b_lines=b_lines, c_lines=c_lines):
            slab = local_cols[j] // c_lines if c_lines else 0
            return (j // b_lines, owners[j], j - local_cols[j], slab)

        flat = [block for per_range in blocks for block in per_range]
        assert [lo for lo, *_ in flat] == [j for j in range(n)
                                          if j == 0 or key(j) != key(j - 1)]
        assert [hi for _, hi, *_ in flat[:-1]] == [lo for lo, *_ in flat[1:]]
        assert flat[-1][1] == n
        for lo, _hi, owner, local_lo in flat:
            assert (owner, local_lo) == (owners[lo], local_cols[lo])
        assert [len(per_range) for per_range in blocks] == [
            sum(1 for lo, *_ in flat if start <= lo < stop) for start, stop in ranges]


@pytest.mark.parametrize("dist", ["block", "cyclic"])
def test_column_engine_keeps_owner_stores_in_place(dist):
    """The column-slab schedule one column at a time — an owner's ``store_slab``
    right after the last column of each result slab — charges what the blocks do."""
    n, p = 24, 4
    program = compile_gaxpy(n, p, dist, 0.3)
    blocked = estimate_vm(p)
    run_reduction_column(blocked, program)

    plan = _plan_for(program, SlabbingStrategy.COLUMN)
    arrays, roles = program.program.arrays, program.analysis
    lines = {name: plan.entry(name).lines_per_slab
             for name in (roles.streamed, roles.coefficient, roles.result)}
    local = {name: arrays[name].local_shapes()[0] for name in lines}
    s_slabs, b_slabs, c_slabs = (column_slabs(local[name], lines[name]) for name in lines)
    c_desc = arrays[roles.result]
    owners, local_cols = (table.tolist() for table in c_desc.owner_table(1))
    itemsize = c_desc.itemsize
    scalar = estimate_vm(p)
    machine = scalar.machine
    for b_slab in b_slabs:
        for rank in range(p):
            machine.charge_read(rank, b_slab.nbytes(itemsize), 1)
        for j in range(b_slab.col_start, b_slab.col_stop):
            for s_slab in s_slabs:
                for rank in range(p):
                    machine.charge_read(rank, s_slab.nbytes(itemsize), 1)
                    machine.charge_compute(rank, 2.0 * s_slab.nelements)
            machine.charge_global_sum(n * itemsize, nelements=n)
            c_slab = c_slabs[local_cols[j] // lines[roles.result]]
            if local_cols[j] == c_slab.col_stop - 1:
                machine.charge_write(owners[j], c_slab.nbytes(itemsize), 1)
    assert charged_state(blocked) == charged_state(scalar)


# ---------------------------------------------------------------------------
# (b) scalar charge calls do not grow with the number of result columns
# ---------------------------------------------------------------------------
@pytest.fixture
def charge_calls(monkeypatch):
    calls = collections.Counter()

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(Machine, "charge_compute")
    counting(Machine, "charge_read")
    counting(SimulatedComm, "global_sum")
    return calls


@pytest.mark.parametrize("mode", ["execute", "estimate"])
@pytest.mark.parametrize("version", ["column", "row", "incore"])
def test_scalar_charge_calls_do_not_grow_with_n(tmp_path, charge_calls, version, mode):
    seen = {}
    for n in (128, 256):
        point = WorkloadPoint("gaxpy", n=n, nprocs=4, version=version,
                              slab_ratio=None if version == "incore" else 0.25)
        program = get_workload("gaxpy").compile(point, MachineParameters()).program
        config = RunConfig(scratch_dir=tmp_path / str(n), mode=ExecutionMode(mode))
        charge_calls.clear()
        with VirtualMachine(4, MachineParameters(), config) as vm:
            # the in-core version is the row-slab program at slab ratio 1
            result = ENGINES[program.plan.strategy.value](
                vm, program, dense_inputs(n, n) if mode == "execute" else None)
            requests = vm.io_statistics()["io_requests_per_proc"]
        assert mode == "estimate" or result.verified is True
        seen[n] = (requests, dict(charge_calls))
    small, large = seen[128], seen[256]
    if version == "column":
        assert large[0] > 1.9 * small[0]  # the streamed array really is re-read per column
    assert large[1] == small[1]
    assert sum(large[1].values()) < 128
