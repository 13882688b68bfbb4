"""Tests for the charge-discipline AST linter (``tools/lint_charge_discipline.py``).

Each rule gets a positive case (a minimal offending snippet is flagged) and a
negative case (the idiom the runtime actually uses passes) — then the whole
repository is linted for real, which is the invariant CI enforces.
"""

import ast
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "lint_charge_discipline", REPO / "tools" / "lint_charge_discipline.py"
)
lint = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(lint)


def findings(rule, source, name="module.py"):
    tree = ast.parse(source)
    return list(rule(tree, Path(name)))


class TestIOConfinement:
    def test_open_outside_engine_is_flagged(self):
        out = findings(lint.check_io_confinement,
                       "handle = open('x.bin', 'wb')", "vm.py")
        assert [v.rule for v in out] == ["io-confinement"]

    def test_numpy_memmap_is_flagged(self):
        out = findings(lint.check_io_confinement,
                       "import numpy as np\nm = np.memmap('x', dtype='f4')",
                       "executor.py")
        assert [v.rule for v in out] == ["io-confinement"]

    def test_engine_files_are_exempt(self):
        assert findings(lint.check_io_confinement,
                        "handle = open('x.bin', 'wb')", "laf.py") == []
        assert findings(lint.check_io_confinement,
                        "handle = open('x.bin', 'wb')", "io_engine.py") == []

    def test_non_file_load_is_not_flagged(self):
        # SlabManifest.load / a buffer's load are in-memory, not host file I/O.
        assert findings(lint.check_io_confinement,
                        "manifest = SlabManifest.load(path)", "executor.py") == []
        assert findings(lint.check_io_confinement,
                        "self.buffer.load(slab, data)", "ocla.py") == []


class TestWallClock:
    def test_perf_counter_is_flagged(self):
        out = findings(lint.check_wall_clock,
                       "import time\nstart = time.perf_counter()")
        assert [v.rule for v in out] == ["wall-clock"]

    def test_datetime_now_is_flagged(self):
        out = findings(lint.check_wall_clock,
                       "from datetime import datetime\nt = datetime.now()")
        assert [v.rule for v in out] == ["wall-clock"]

    def test_sleep_is_allowed(self):
        # The retry backoff delays the host without reading a clock.
        assert findings(lint.check_wall_clock,
                        "import time\ntime.sleep(0.01)") == []

    def test_unrelated_now_method_is_allowed(self):
        assert findings(lint.check_wall_clock, "x = scheduler.now()") == []


class TestRetryCharge:
    RETRYING_CHARGE = """
while True:
    try:
        machine.charge_read(rank, nbytes, 1)
        return op()
    except TransientIOError:
        failures += 1
"""
    CHARGE_AFTER_LOOP = """
while True:
    try:
        return op()
    except (TransientIOError, OSError):
        failures += 1
machine.charge_read(rank, nbytes, 1)
"""

    def test_charge_inside_retry_loop_is_flagged(self):
        out = findings(lint.check_retry_charges, self.RETRYING_CHARGE)
        assert [v.rule for v in out] == ["retry-charge"]

    def test_charge_after_the_loop_is_allowed(self):
        assert findings(lint.check_retry_charges, self.CHARGE_AFTER_LOOP) == []

    def test_loop_without_retry_handler_is_allowed(self):
        source = """
for slab in slabs:
    machine.charge_read(rank, slab.nbytes, 1)
"""
        assert findings(lint.check_retry_charges, source) == []


class TestFrozenMutation:
    def test_foreign_setattr_is_flagged(self):
        out = findings(lint.check_frozen_mutation,
                       "object.__setattr__(plan, 'cost', cheaper)")
        assert [v.rule for v in out] == ["frozen-mutation"]

    def test_own_init_is_allowed(self):
        source = """
class LoopOp:
    def __init__(self, index):
        object.__setattr__(self, "index", str(index))
"""
        assert findings(lint.check_frozen_mutation, source) == []

    def test_helper_method_mutation_is_flagged(self):
        source = """
class Tamper:
    def rewrite(self, plan):
        object.__setattr__(plan, "cost", None)
"""
        out = findings(lint.check_frozen_mutation, source)
        assert [v.rule for v in out] == ["frozen-mutation"]


class TestLoopIndexTranslation:
    PER_COLUMN = """
for j in range(n_cols):
    owner = c_desc.owner_of_dim(1, j)
    local_j = c_desc.global_to_local((0, j))[1]
"""
    HOISTED = """
owners, local_cols = c_desc.owner_table(1)
ranges = src_desc.local_index_ranges(src)
for j in c_desc.local_index_ranges(0)[1]:
    owner = owners[j]
else:
    last = c_desc.local_to_global(0, (0, 0))
"""

    def test_calls_in_a_for_body_are_flagged(self):
        out = findings(lint.check_loop_index_translation, self.PER_COLUMN, "executor.py")
        assert [(v.rule, v.line) for v in out] == [
            ("loop-index-translation", 3), ("loop-index-translation", 4),
        ]

    def test_nested_loops_flag_each_call_once(self):
        source = "for a in x:\n    for b in y:\n        d.local_to_global(r, (a, b))\n"
        out = findings(lint.check_loop_index_translation, source, "executor.py")
        assert [v.line for v in out] == [3]

    def test_comprehensions_are_flagged(self):
        source = "cols = {r: d.local_index_ranges(r)[1] for r in ranks}\n"
        out = findings(lint.check_loop_index_translation, source, "executor.py")
        assert [v.rule for v in out] == ["loop-index-translation"]

    def test_hoisted_lookups_and_loop_iterables_are_allowed(self):
        assert findings(lint.check_loop_index_translation, self.HOISTED, "executor.py") == []

    def test_only_the_executor_is_checked(self):
        assert findings(lint.check_loop_index_translation, self.PER_COLUMN, "vm.py") == []


class TestPerColumnCharge:
    # the two per-column bodies the column blocks replaced, abridged
    PER_COLUMN = """
def run_reduction_column(vm, compiled):
    for b_slab in b_slabs:
        for m in range(b_slab.ncols):
            for s_slab in s_slabs:
                for rank in vm.ranks:
                    vm.machine.charge_read(rank, s_slab.nbytes(itemsize), 1)
                    vm.machine.charge_compute(rank, 2.0 * s_slab.nelements)
            column = vm.comm.global_sum(parts, shape=(n_rows,), itemsize=itemsize)

def run_reduction_row(vm, compiled):
    for s_slab in s_slabs:
        for b_slab in b_slabs:
            for m in range(b_slab.ncols):
                for rank in vm.ranks:
                    vm.machine.charge_compute(rank, 2.0 * s_slab.nelements)
                subcolumn = vm.comm.global_sum(parts, shape=(rows,), itemsize=itemsize)
"""
    BLOCKED = """
def run_reduction_row(vm, compiled):
    for s_slab in s_slabs:
        steps = {rank: [("compute", 2.0 * s_slab.nelements)] for rank in vm.ranks}
        for b_slab, b_blocks in zip(b_slabs, blocks):
            for block in b_blocks:
                _reduce_column_block(vm, block, steps, products, 0, c_buffer,
                                     rows=s_slab.nrows, itemsize=itemsize)

def run_reduction_single_operand(vm, compiled):
    for j in range(n_cols):
        for rank in vm.ranks:
            vm.machine.charge_compute(rank, flops)
        column = vm.comm.global_sum(parts, shape=(n_rows,), itemsize=itemsize)
"""

    def test_the_per_column_loops_are_flagged(self):
        out = findings(lint.check_per_column_charge, self.PER_COLUMN, "executor.py")
        assert [(v.rule, v.line) for v in out] == [
            ("per-column-charge", line) for line in (7, 8, 9, 16, 17)
        ]

    def test_block_engines_and_other_engines_are_allowed(self):
        assert findings(lint.check_per_column_charge, self.BLOCKED, "executor.py") == []

    def test_a_charge_outside_any_loop_is_allowed(self):
        source = "def run_reduction_row(vm):\n    vm.machine.charge_compute(0, 1.0)\n"
        assert findings(lint.check_per_column_charge, source, "executor.py") == []

    def test_only_the_executor_is_checked(self):
        assert findings(lint.check_per_column_charge, self.PER_COLUMN, "kernels.py") == []


class TestPerSlabCharge:
    # the per-slab charging the lanes replaced, abridged
    PER_SLAB = """
def run_elementwise_plan(vm, compiled, inputs=None, verify=True):
    for rank in vm.ranks:
        for slab in make_slabs(shape, strategy, slab_elements):
            operands = [ooc[ref].local(rank).fetch_slab(slab) for ref in refs]
            vm.machine.charge_compute(rank, 1.0 * slab.nelements)
            ooc[result].local(rank).store_slab(slab, block if perform else None)
    charged = [vm.machine.charge_lane({rank: lane}) for rank, lane in lanes.items()]

def run_transpose_plan(vm, compiled, inputs=None, verify=True):
    for rank in vm.ranks:
        for slab in column_slabs(shape, cols_per_slab):
            target.local(rank).save_slab(slab, data)
            vm.machine.charge_write(rank, slab.nbytes(4), 1)

def run_reduction_single_operand(vm, compiled, inputs=None, verify=True):
    for slab in slabs:
        staged = {rank: ooc.local(rank).load_slab(slab) for rank in vm.ranks}
        ooc.local(0).fetch_slab(slab)
"""
    # one lane per rank charged outside any loop, then EXECUTE-only data loops;
    # other engines' charged slab loops are not this rule's business
    LANES = """
def run_elementwise_plan(vm, compiled, inputs=None, verify=True):
    vm.machine.charge_lane({
        rank: [(slab_steps(rank, slab), count) for slab, count in slab_runs(shape, s, n)]
        for rank, shape in shapes.items()
    })
    if vm.perform_io:
        for rank, shape in shapes.items():
            for slab in make_slabs(shape, strategy, slab_elements):
                operands = [ooc[ref].local(rank).load_slab(slab) for ref in refs]
                ooc[result].local(rank).save_slab(slab, block)

def run_transpose_plan(vm, compiled, inputs=None, verify=True):
    for src in range(nprocs):
        for slab in column_slabs(local_shape, cols_per_slab):
            block = source.local(src).fetch_slab(slab)
            vm.comm.charge_all_to_all(payload_bytes)
    vm.machine.charge_lane(lanes)
    for rank, shape in shapes.items():
        for slab in column_slabs(shape, cols_per_slab):
            target.local(rank).save_slab(slab, data)
"""

    def test_per_slab_charges_are_flagged(self):
        out = findings(lint.check_per_slab_charge, self.PER_SLAB, "executor.py")
        assert [(v.rule, v.line) for v in out] == [
            ("per-slab-charge", line) for line in (5, 6, 7, 8, 14, 19)
        ]

    def test_lanes_and_other_charged_loops_are_allowed(self):
        assert findings(lint.check_per_slab_charge, self.LANES, "executor.py") == []

    def test_only_the_executor_is_checked(self):
        assert findings(lint.check_per_slab_charge, self.PER_SLAB, "kernels.py") == []


class TestProcessWideCache:
    # what this rule was written against: the two caches that sat in front
    # of the Session LRU, one per form the rule knows
    PROCESS_WIDE = """
import collections
import functools

_PROGRAM_CACHE: "collections.OrderedDict[tuple, object]" = collections.OrderedDict()
_KERNEL_CACHE = {}

@functools.lru_cache(maxsize=256)
def _compile_cached(n, nprocs):
    return compile(n, nprocs)

class Planner:
    @functools.cache
    def price(self, budget):
        return budget
"""

    # what the repository does instead: caches are state of the object that
    # owns the results, and the ambient plan cache is a ContextVar
    OWNED = """
import collections
import contextvars

_ACTIVE_CACHE = contextvars.ContextVar("plan_cache", default=None)
_REGISTRY = {}

class Session:
    def __init__(self):
        self._cache = collections.OrderedDict()

def search():
    LOCAL_CACHE = {}
    return LOCAL_CACHE
"""

    def test_decorators_and_module_level_containers_are_flagged(self):
        out = findings(lint.check_process_wide_cache, self.PROCESS_WIDE, "workload.py")
        assert [(v.rule, v.line) for v in out] == [
            ("process-wide-cache", line) for line in (8, 13, 5, 6)
        ]

    def test_owned_caches_and_the_context_variable_are_allowed(self):
        assert findings(lint.check_process_wide_cache, self.OWNED, "session.py") == []


class TestDenseZeroInitial:
    # what this rule was written against: the result arrays of the four
    # engines, in the two spellings they used
    ZERO_FILLED = """
import numpy as np

def setup(vm, c_desc, order):
    ooc_c = vm.ensure_array(c_desc, initial=None if not vm.perform_io else
                            np.zeros(c_desc.shape, dtype=c_desc.dtype), storage_order=order)
    zeros = np.zeros(c_desc.shape, dtype=c_desc.dtype) if vm.perform_io else None
    return ooc_c, vm.create_array(c_desc, initial=zeros, storage_order=order)
"""

    # operands carry data; a result starts as the zero-filled file it is
    DATA_OR_NOTHING = """
import numpy as np

def setup(vm, a_desc, c_desc, a_dense):
    buffers = np.zeros(c_desc.shape, dtype=c_desc.dtype)
    ooc_a = vm.ensure_array(a_desc, initial=a_dense, storage_order="F")
    return ooc_a, vm.create_array(c_desc, initial=None), buffers
"""

    def test_zeros_inline_and_through_a_name_are_flagged(self):
        out = findings(lint.check_dense_zero_initial, self.ZERO_FILLED, "executor.py")
        assert [(v.rule, v.line) for v in out] == [
            ("dense-zero-initial", line) for line in (5, 8)
        ]

    def test_dense_operands_and_bare_results_are_allowed(self):
        assert findings(lint.check_dense_zero_initial, self.DATA_OR_NOTHING, "executor.py") == []


class TestEngineContract:
    # what this rule was written against: the descriptor-driven engines
    DESCRIPTOR_DRIVEN = """
def run_elementwise_plan(vm, a_desc, b_desc, c_desc, *, op, slab_elements,
                         strategy="column", a_dense=None, b_dense=None, verify=True):
    pass

def run_transpose_plan(vm, src_desc, dst_desc, *, cols_per_slab, a_dense=None, verify=True):
    pass

def run_reduction_row(vm, compiled, inputs=None, verify=True, *extra):
    pass
"""

    # one contract; private helpers and methods are not engines
    ONE_CONTRACT = """
def run_elementwise_plan(vm, compiled, inputs=None, verify=True):
    pass

def run_transpose_plan(vm: "VirtualMachine", compiled: "CompiledProgram",
                       inputs: "Inputs" = None, verify: bool = True) -> "ExecutionResult":
    pass

def _run_recovering(vm, narrays, attempt, repair=None):
    pass

class NodeProgramExecutor:
    def run(self, vm, inputs=None, verify=True):
        pass
"""

    def test_descriptor_driven_signatures_are_flagged(self):
        out = findings(lint.check_engine_contract, self.DESCRIPTOR_DRIVEN, "executor.py")
        assert [(v.rule, v.line) for v in out] == [
            ("engine-contract", line) for line in (2, 6, 9)
        ]

    def test_the_one_contract_is_allowed(self):
        assert findings(lint.check_engine_contract, self.ONE_CONTRACT, "executor.py") == []

    def test_only_the_executor_is_checked(self):
        assert findings(lint.check_engine_contract, self.DESCRIPTOR_DRIVEN, "kernels.py") == []


class TestEstimateParity:
    # a merged elementwise slab loop that stores its computed block in both modes
    UNGATED = """
def run_elementwise_plan(vm, compiled, inputs=None, verify=True):
    for slab in slabs:
        block = op(*operands)
        ooc.local(rank).store_slab(slab, block)
"""

    # the gates the engines use: an IfExp payload, an if-branch, a None payload
    GATED = """
def run_elementwise_plan(vm, compiled, inputs=None, verify=True):
    perform = vm.perform_io
    for slab in slabs:
        ooc.local(rank).store_slab(slab, blocks[result] if perform else None)
        if vm.perform_io:
            target.local(rank).store_slab(slab, data)
        else:
            target.local(rank).store_slab(slab, None)
"""

    def test_an_ungated_real_store_is_flagged(self):
        out = findings(lint.check_estimate_parity, self.UNGATED, "executor.py")
        assert [(v.rule, v.line) for v in out] == [("estimate-parity", 5)]

    def test_gated_stores_are_allowed(self):
        assert findings(lint.check_estimate_parity, self.GATED, "executor.py") == []

    def test_an_uncharged_save_is_gated_too(self):
        source = """
def run_transpose_plan(vm, compiled, inputs=None, verify=True):
    for slab in slabs:
        target.local(rank).save_slab(slab, data)
    if vm.perform_io:
        target.local(rank).save_slab(slab, data)
"""
        out = findings(lint.check_estimate_parity, source, "executor.py")
        assert [(v.rule, v.line) for v in out] == [("estimate-parity", 4)]
        assert findings(lint.check_estimate_parity, source, "ocla.py") == []


class TestOperandSource:
    # what this rule was written against: the dense normal draw of every input
    SECOND_SOURCE = """
import numpy as np
from numpy.random import Philox

def generate_inputs(names, shape, seed):
    rng = np.random.default_rng(seed)
    dense = {name: rng.standard_normal(shape) for name in names}
    noise = np.random.standard_normal(shape)
    return dense, noise, np.random.Generator(Philox(seed))
"""

    # the operand source's own idiom, and random-free numpy elsewhere
    ONE_SOURCE = """
import numpy as np

def tile(key, shape):
    return np.random.Generator(np.random.Philox(key=key)).random(shape)
"""

    def test_generators_and_distributions_are_flagged(self):
        out = findings(lint.check_operand_source, self.SECOND_SOURCE, "src/repro/api/workload.py")
        assert [(v.rule, v.line) for v in out] == [
            ("operand-source", line) for line in (6, 8, 9, 9)
        ]

    def test_only_the_operand_source_may_draw(self):
        path = "src/repro/runtime/operands.py"
        assert findings(lint.check_operand_source, self.ONE_SOURCE, path) == []
        assert findings(lint.check_operand_source, self.SECOND_SOURCE, path) == []
        assert findings(lint.check_operand_source, "x = np.zeros((2, 2)).sum()", "vm.py") == []


def test_repository_is_clean():
    violations = lint.lint_tree(REPO)
    assert violations == [], "\n".join(v.render() for v in violations)


def test_main_exit_codes(tmp_path):
    assert lint.main([str(REPO)]) == 0
    bad = tmp_path / "src" / "repro" / "runtime"
    bad.mkdir(parents=True)
    (bad / "rogue.py").write_text("handle = open('x.bin', 'wb')\n")
    assert lint.main([str(tmp_path)]) == 1
