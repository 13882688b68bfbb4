"""Tests for the compiler core: IR, analysis, strip-mining, cost model,
memory allocation, reorganization, code generation and the pipeline."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.io_cost import (
    column_slab_fetch_elements,
    column_slab_fetch_requests,
    row_slab_fetch_elements,
    row_slab_fetch_requests,
)
from repro.exceptions import CompilationError, CostModelError, MemoryAllocationError
from repro.check import check_compiled
from repro.core import (
    ArrayRole,
    CostModel,
    EqualAllocation,
    ProportionalAllocation,
    SearchAllocation,
    analyze_program,
    build_gaxpy_ir,
    compile_gaxpy,
    compile_program,
    generate_node_program,
)
from repro.core.ir import ArrayRef, Constant, FullRange, LoopIndex, LoopKind, ProgramIR, ReductionStatement
from repro.core.memory_alloc import _entries_from_split
from repro.core.reorganize import plan_from_slab_elements, reorganize
from repro.core.stripmine import (
    build_plan_entry,
    slab_elements_from_bytes,
    slab_elements_from_ratio,
    slab_ratio_from_elements,
)
from repro.machine.parameters import touchstone_delta
from repro.runtime.slab import SlabbingStrategy


# ---------------------------------------------------------------------------
# IR
# ---------------------------------------------------------------------------
class TestIR:
    def test_gaxpy_ir_structure(self):
        program = build_gaxpy_ir(64, 4)
        assert program.loop_indices() == ("j", "k")
        assert program.loops[0].kind is LoopKind.SEQUENTIAL
        assert program.loops[1].kind is LoopKind.FORALL
        assert set(program.out_of_core_arrays()) == {"a", "b", "c"}
        assert program.nprocs() == 4
        assert "sum" in program.statement.describe()

    def test_describe_includes_arrays_and_loops(self):
        text = build_gaxpy_ir(32, 2).describe()
        assert "column-block" in text and "row-block" in text
        assert "FORALL" in text and "DO" in text

    def test_undeclared_array_rejected(self):
        program = build_gaxpy_ir(32, 2)
        bad = ReductionStatement(
            result=ArrayRef("z", [FullRange(), LoopIndex("j")]),
            operands=[ArrayRef("a", [FullRange(), LoopIndex("k")])],
            reduce_index="k",
        )
        with pytest.raises(CompilationError):
            ProgramIR("bad", program.arrays, program.loops, bad)

    def test_unknown_loop_index_rejected(self):
        program = build_gaxpy_ir(32, 2)
        bad = ReductionStatement(
            result=ArrayRef("c", [FullRange(), LoopIndex("j")]),
            operands=[ArrayRef("a", [FullRange(), LoopIndex("q")])],
            reduce_index="k",
        )
        with pytest.raises(CompilationError):
            ProgramIR("bad", program.arrays, program.loops, bad)

    def test_wrong_subscript_count_rejected(self):
        program = build_gaxpy_ir(32, 2)
        bad = ReductionStatement(
            result=ArrayRef("c", [LoopIndex("j")]),
            operands=[ArrayRef("a", [FullRange(), LoopIndex("k")])],
            reduce_index="k",
        )
        with pytest.raises(CompilationError):
            ProgramIR("bad", program.arrays, program.loops, bad)

    def test_reduction_operator_validation(self):
        with pytest.raises(CompilationError):
            ReductionStatement(
                result=ArrayRef("c", [FullRange()]),
                operands=[ArrayRef("a", [FullRange()])],
                reduce_index="k",
                op="xor",
            )

    def test_subscript_helpers(self):
        ref = ArrayRef("a", [FullRange(), LoopIndex("k"), Constant(3)])
        assert ref.full_range_dims() == (0,)
        assert ref.dims_with_index("k") == (1,)
        assert ref.uses_index("k") and not ref.uses_index("j")
        assert ref.describe() == "a(:, k, 3)"


# ---------------------------------------------------------------------------
# analysis (in-core phase)
# ---------------------------------------------------------------------------
class TestAnalysis:
    def test_roles_and_communication(self):
        analysis = analyze_program(build_gaxpy_ir(64, 4))
        assert analysis.streamed == "a"
        assert analysis.coefficient == "b"
        assert analysis.result == "c"
        assert analysis.roles()["a"] is ArrayRole.STREAMED
        assert analysis.roles()["b"] is ArrayRole.COEFFICIENT
        assert analysis.roles()["c"] is ArrayRole.RESULT
        assert analysis.needs_global_sum
        assert analysis.needs_owner_store
        assert analysis.outer_loop.index == "j"
        assert analysis.reduce_loop.index == "k"

    def test_flops_estimate(self):
        n, p = 64, 4
        analysis = analyze_program(build_gaxpy_ir(n, p))
        assert analysis.flops_per_proc == pytest.approx(2 * n * (n * n // p))

    def test_single_processor_needs_no_communication(self):
        analysis = analyze_program(build_gaxpy_ir(32, 1))
        assert not analysis.needs_global_sum
        assert not analysis.needs_owner_store

    def test_describe(self):
        text = analyze_program(build_gaxpy_ir(32, 2)).describe()
        assert "streamed" in text and "global sum" in text


# ---------------------------------------------------------------------------
# strip-mining
# ---------------------------------------------------------------------------
class TestStripmine:
    def test_ratio_conversion_round_trip(self):
        program = build_gaxpy_ir(64, 4)
        desc = program.arrays["a"]
        for ratio in (0.125, 0.25, 0.5, 1.0):
            elements = slab_elements_from_ratio(desc, ratio)
            assert slab_ratio_from_elements(desc, elements) == pytest.approx(ratio, rel=0.01)

    def test_bytes_conversion(self):
        desc = build_gaxpy_ir(64, 4).arrays["a"]
        assert slab_elements_from_bytes(desc, 4096) == 1024  # float32
        assert slab_elements_from_bytes(desc, 10**9) == 64 * 16  # clamped to local size

    def test_invalid_inputs(self):
        desc = build_gaxpy_ir(64, 4).arrays["a"]
        with pytest.raises(CompilationError):
            slab_elements_from_ratio(desc, 0.0)
        with pytest.raises(CompilationError):
            slab_elements_from_ratio(desc, 1.5)
        with pytest.raises(CompilationError):
            slab_elements_from_bytes(desc, 0)

    def test_plan_entry_column(self):
        desc = build_gaxpy_ir(64, 4).arrays["a"]  # local 64 x 16
        entry = build_plan_entry(desc, SlabbingStrategy.COLUMN, 256)  # 4 columns
        assert entry.lines_per_slab == 4
        assert entry.num_slabs == 4
        assert entry.storage_order == "F"
        assert entry.slab_elements == 256

    def test_plan_entry_row(self):
        desc = build_gaxpy_ir(64, 4).arrays["a"]
        entry = build_plan_entry(desc, "row", 256)  # 16 per row -> 16 rows
        assert entry.lines_per_slab == 16
        assert entry.num_slabs == 4
        assert entry.storage_order == "C"

    def test_plan_entry_minimum_one_line(self):
        desc = build_gaxpy_ir(64, 4).arrays["a"]
        entry = build_plan_entry(desc, "column", 1)
        assert entry.lines_per_slab == 1
        assert entry.num_slabs == 16


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------
class TestCostModel:
    def _costs(self, n, p, ratio, strategy):
        program = build_gaxpy_ir(n, p)
        analysis = analyze_program(program)
        sizes = {
            name: slab_elements_from_ratio(program.arrays[name], ratio)
            for name in ("a", "b", "c")
        }
        entries = _entries_from_split(analysis, SlabbingStrategy.from_name(strategy), sizes)
        model = CostModel(touchstone_delta(), p)
        return model.estimate(analysis, strategy, entries)

    @pytest.mark.parametrize("n,p,ratio", [
        (n, p, ratio)
        for (n, p), ratio in itertools.product(
            [(256, 4), (512, 8), (1024, 16), (1024, 64), (2048, 16)], [0.125, 0.25, 0.5, 1.0])
    ])
    def test_matches_paper_equations(self, n, p, ratio):
        m = int((n * n // p) * ratio)
        column = self._costs(n, p, ratio, "column").arrays["a"]
        row = self._costs(n, p, ratio, "row").arrays["a"]
        assert column.fetch_requests == pytest.approx(column_slab_fetch_requests(n, p, m), rel=0.01)
        assert column.fetch_elements == pytest.approx(column_slab_fetch_elements(n, p, m), rel=0.01)
        assert row.fetch_requests == pytest.approx(row_slab_fetch_requests(n, p, m), rel=0.01)
        assert row.fetch_elements == pytest.approx(row_slab_fetch_elements(n, p, m), rel=0.01)

    @pytest.mark.parametrize("n,p", [(512, 8), (1024, 16)])
    def test_row_cheaper_than_column(self, n, p):
        column = self._costs(n, p, 0.25, "column")
        row = self._costs(n, p, 0.25, "row")
        assert row.io_time < column.io_time / 5
        assert row.total_time < column.total_time
        # the paper's headline: reorganization cuts the streamed array's I/O N-fold
        streamed, reorganized = column.arrays["a"], row.arrays["a"]
        assert streamed.fetch_elements / reorganized.fetch_elements == pytest.approx(n, rel=0.01)
        assert streamed.fetch_requests / reorganized.fetch_requests == pytest.approx(n, rel=0.01)

    def test_dominant_array_is_streamed_under_column(self):
        assert self._costs(512, 8, 0.25, "column").dominant_array() == "a"

    def test_invalid_nprocs(self):
        with pytest.raises(CostModelError):
            CostModel(touchstone_delta(), 0)

    @settings(max_examples=40, deadline=None)
    @given(
        ratio_small=st.sampled_from([0.125, 0.25]),
        ratio_large=st.sampled_from([0.5, 1.0]),
        p=st.sampled_from([4, 8, 16]),
    )
    def test_larger_slabs_never_cost_more(self, ratio_small, ratio_large, p):
        for strategy in ("column", "row"):
            small = self._costs(256, p, ratio_small, strategy)
            large = self._costs(256, p, ratio_large, strategy)
            assert large.io_time <= small.io_time * 1.0001
            assert large.io_requests <= small.io_requests


# ---------------------------------------------------------------------------
# memory allocation
# ---------------------------------------------------------------------------
class TestMemoryAllocation:
    def _setup(self, n=512, p=8):
        program = build_gaxpy_ir(n, p)
        analysis = analyze_program(program)
        model = CostModel(touchstone_delta(), p)
        return analysis, model

    def test_equal_split(self):
        analysis, model = self._setup()
        local = 512 * 512 // 8
        split = EqualAllocation().split(analysis, SlabbingStrategy.ROW, local, model)
        assert split["a"] == split["b"]
        assert split["c"] >= 1

    def test_proportional_gives_streamed_array_more(self):
        analysis, model = self._setup()
        local = 512 * 512 // 8
        split = ProportionalAllocation().split(analysis, SlabbingStrategy.ROW, local, model)
        assert split["a"] > split["b"]

    def test_search_not_worse_than_equal(self):
        analysis, model = self._setup()
        budget = 512 * 512 // 8
        equal = EqualAllocation().split(analysis, SlabbingStrategy.ROW, budget, model)
        searched = SearchAllocation().split(analysis, SlabbingStrategy.ROW, budget, model)
        cost_equal = model.estimate(
            analysis, SlabbingStrategy.ROW, _entries_from_split(analysis, SlabbingStrategy.ROW, equal)
        )
        cost_search = model.estimate(
            analysis, SlabbingStrategy.ROW, _entries_from_split(analysis, SlabbingStrategy.ROW, searched)
        )
        assert cost_search.total_time <= cost_equal.total_time * 1.0001

    def test_budget_below_minimum_rejected(self):
        analysis, model = self._setup()
        with pytest.raises(MemoryAllocationError):
            EqualAllocation().split(analysis, SlabbingStrategy.ROW, 10, model)

    def test_splits_respect_budget(self):
        analysis, model = self._setup()
        budget = 512 * 512 // 8 // 2
        for policy in (EqualAllocation(), ProportionalAllocation(), SearchAllocation()):
            split = policy.split(analysis, SlabbingStrategy.ROW, budget, model)
            assert sum(split.values()) <= budget * 1.01


# ---------------------------------------------------------------------------
# reorganization and pipeline
# ---------------------------------------------------------------------------
class TestReorganization:
    def test_reorganize_prefers_row_slabs(self):
        program = build_gaxpy_ir(1024, 16)
        analysis = analyze_program(program)
        decision = reorganize(analysis, touchstone_delta(), 16, 2 * 1024 * 1024)
        assert decision.chosen.strategy is SlabbingStrategy.ROW
        assert decision.dominant_array == "a"
        assert decision.predicted_improvement > 10
        assert "row" in decision.describe()

    def test_candidate_lookup(self):
        program = build_gaxpy_ir(256, 4)
        analysis = analyze_program(program)
        decision = reorganize(analysis, touchstone_delta(), 4, 256 * 1024)
        assert decision.candidate("column").strategy is SlabbingStrategy.COLUMN
        with pytest.raises(CompilationError):
            decision.candidate("column")  # fine
            decision.candidates.clear()
            decision.candidate("row")

    def test_plan_from_explicit_sizes_requires_all_arrays(self):
        program = build_gaxpy_ir(256, 4)
        analysis = analyze_program(program)
        model = CostModel(touchstone_delta(), 4)
        with pytest.raises(CompilationError):
            plan_from_slab_elements(analysis, "row", {"a": 1024}, model)

    def test_invalid_budget(self):
        program = build_gaxpy_ir(256, 4)
        analysis = analyze_program(program)
        with pytest.raises(CompilationError):
            reorganize(analysis, touchstone_delta(), 4, 0)


class TestPipeline:
    @pytest.mark.parametrize("p,budget,policy", [
        (16, 2 * 1024 * 1024, None), (64, 4 * 1024 * 1024, ProportionalAllocation())])
    def test_compile_with_budget_chooses_row(self, p, budget, policy):
        compiled = compile_gaxpy(1024, p, memory_budget_bytes=budget, policy=policy)
        assert compiled.strategy is SlabbingStrategy.ROW
        assert compiled.decision is not None
        assert compiled.decision.predicted_improvement >= 10.0
        assert compiled.predicted_cost.total_time > 0
        assert "row" in compiled.describe()

    def test_compile_with_ratio(self):
        compiled = compile_gaxpy(256, 4, slab_ratio=0.25)
        assert compiled.plan.entry("a").num_slabs == 4

    def test_compile_with_explicit_sizes(self):
        compiled = compile_gaxpy(256, 4, slab_elements={"a": 4096, "b": 4096})
        assert compiled.plan.entry("a").slab_elements <= 4096

    def test_force_strategy(self):
        compiled = compile_gaxpy(256, 4, slab_ratio=0.25, force_strategy="column")
        assert compiled.strategy is SlabbingStrategy.COLUMN

    def test_exactly_one_size_spec_required(self):
        program = build_gaxpy_ir(64, 4)
        with pytest.raises(CompilationError):
            compile_program(program)
        with pytest.raises(CompilationError):
            compile_program(program, slab_ratio=0.5, memory_budget_bytes=1024)

    @pytest.mark.parametrize("p", [64, 16])
    def test_compile_is_fast(self, p):
        compiled = compile_gaxpy(2048, p, slab_ratio=0.125)
        assert compiled.strategy is SlabbingStrategy.ROW
        assert compiled.compile_seconds < 1.0


# ---------------------------------------------------------------------------
# code generation: static counts agree with the cost model
# ---------------------------------------------------------------------------
class TestCodegen:
    @pytest.mark.parametrize("strategy", ["column", "row"])
    @pytest.mark.parametrize("n,p,ratio",
                             [(256, 4, 0.25), (512, 8, 0.5), (1024, 16, 1.0), (1024, 16, 0.25)])
    def test_charge_ledger_matches_cost_model(self, strategy, n, p, ratio):
        compiled = compile_gaxpy(n, p, slab_ratio=ratio, force_strategy=strategy)
        ledger = check_compiled(compiled).ledger
        cost = compiled.plan.cost
        assert sorted(ledger.arrays) == sorted(cost.arrays)
        for name, array_cost in cost.arrays.items():
            traffic = ledger.arrays[name]
            assert traffic.read_requests == array_cost.fetch_requests
            assert traffic.read_elements == array_cost.fetch_elements
            assert traffic.write_requests == array_cost.write_requests
            assert traffic.write_elements == array_cost.write_elements
        assert ledger.flops == cost.flops
        assert ledger.collective_count == cost.collective_count
        totals = compiled.node_program.operation_totals()
        assert totals["flops"] == cost.flops > 0
        assert totals["global_sums"] == cost.collective_count > 0

    def test_pretty_print_mentions_io_and_global_sum(self):
        compiled = compile_gaxpy(256, 4, slab_ratio=0.25, force_strategy="row")
        text = compiled.node_program.pretty()
        assert "call I/O read" in text
        assert "global sum" in text
        assert "row-slab" in text

    def test_generate_requires_known_strategy(self):
        compiled = compile_gaxpy(64, 4, slab_ratio=0.5)
        program = generate_node_program(compiled.analysis, compiled.plan)
        assert program.strategy in ("row-slab", "column-slab")
