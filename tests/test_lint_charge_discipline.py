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
        # SlabManifest.load / icla.load are in-memory, not host file I/O.
        assert findings(lint.check_io_confinement,
                        "manifest = SlabManifest.load(path)", "executor.py") == []
        assert findings(lint.check_io_confinement,
                        "self.icla.load(slab, data)", "ocla.py") == []


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
    # the three per-column bodies the column blocks replaced, abridged
    PER_COLUMN = """
def run_reduction_column(vm, compiled):
    for b_slab in b_slabs:
        for m in range(b_slab.ncols):
            for s_slab in s_slabs:
                for rank in vm.ranks:
                    ooc_s.local(rank).charge_fetch(s_slab)
                    vm.charge_compute(rank, 2.0 * s_slab.nelements)
            column = vm.comm.global_sum(parts, shape=(n_rows,), itemsize=itemsize)

def run_reduction_row(vm, compiled):
    for s_slab in s_slabs:
        for b_slab in b_slabs:
            for m in range(b_slab.ncols):
                for rank in vm.ranks:
                    vm.charge_compute(rank, 2.0 * s_slab.nelements)
                subcolumn = vm.comm.global_sum(parts, shape=(rows,), itemsize=itemsize)

def run_reduction_incore(vm, compiled):
    for j in range(n_cols):
        for rank in vm.ranks:
            vm.charge_compute(rank, per_column_flops)
        column = vm.comm.global_sum(parts, shape=(n_rows,), itemsize=itemsize)
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
            vm.charge_compute(rank, flops)
        column = vm.comm.global_sum(parts, shape=(n_rows,), itemsize=itemsize)
"""

    def test_the_per_column_loops_are_flagged(self):
        out = findings(lint.check_per_column_charge, self.PER_COLUMN, "executor.py")
        assert [(v.rule, v.line) for v in out] == [
            ("per-column-charge", line) for line in (7, 8, 9, 16, 17, 22, 23)
        ]

    def test_block_engines_and_other_engines_are_allowed(self):
        assert findings(lint.check_per_column_charge, self.BLOCKED, "executor.py") == []

    def test_a_charge_outside_any_loop_is_allowed(self):
        source = "def run_reduction_incore(vm):\n    vm.charge_compute(0, 1.0)\n"
        assert findings(lint.check_per_column_charge, source, "executor.py") == []

    def test_only_the_executor_is_checked(self):
        assert findings(lint.check_per_column_charge, self.PER_COLUMN, "kernels.py") == []


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


def test_repository_is_clean():
    violations = lint.lint_tree(REPO)
    assert violations == [], "\n".join(v.render() for v in violations)


def test_main_exit_codes(tmp_path):
    assert lint.main([str(REPO)]) == 0
    bad = tmp_path / "src" / "repro" / "runtime"
    bad.mkdir(parents=True)
    (bad / "rogue.py").write_text("handle = open('x.bin', 'wb')\n")
    assert lint.main([str(tmp_path)]) == 1
