"""The plan optimizer: budget arithmetic, search strategies, pipeline wiring.

The load-bearing guarantee under test: for every program of the differential
matrix, the planner's chosen plan has a predicted :class:`PlanCost` no worse
than the even split's, the charged ``ESTIMATE`` counters equal the
``EXECUTE`` counters, and the executed numerics still match the NumPy oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ExecutionMode, RunConfig
from repro.core.analysis import FusedElementwisePhase
from repro.core.cost_model import CostModel, local_elements
from repro.core.ir import (
    build_elementwise_ir,
    build_gaxpy_ir,
    build_pipeline_ir,
    build_transpose_ir,
)
from repro.core.memory_alloc import EqualAllocation, ProportionalAllocation, SearchAllocation
from repro.core.pipeline import (
    compile_program,
    compile_whole_program,
    fuse_statement_pair,
    plan_statement,
    price_fused_pair,
)
from repro.core.stripmine import slab_lines
from repro.exceptions import CompilationError, ReproError
from repro.hpf.frontend import frontend_to_ir
from repro.hpf.parser import parse_program
from repro.planner import (
    OPTIMIZERS,
    PlanChoice,
    budget_grid,
    even_choice,
    plan_whole_program,
    split_by_weights,
    split_evenly,
    transfer_neighbors,
)
from repro.runtime.slab import SlabbingStrategy
from repro.runtime.vm import VirtualMachine

from tests.scenarios import PLANNED, Scenario
from tests.test_differential import assert_matches_oracle

CHAIN = Scenario("mm_add_mul", 16, 4)


# ---------------------------------------------------------------------------
# budget arithmetic (satellite: the remainder-dropping even split)
# ---------------------------------------------------------------------------
class TestSplitEvenly:
    @given(total=st.integers(1, 10**9), parts=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_conserves_total_and_is_near_equal(self, total, parts):
        if total < parts:
            with pytest.raises(CompilationError):
                split_evenly(total, parts)
            return
        shares = split_evenly(total, parts)
        assert sum(shares) == total
        assert max(shares) - min(shares) <= 1
        assert all(share >= 1 for share in shares)

    def test_remainder_is_redistributed_not_dropped(self):
        # The historical bug: 100 // 3 == 33 dropped one unit.
        assert split_evenly(100, 3) == [34, 33, 33]

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(CompilationError):
            split_evenly(10, 0)


class TestSplitByWeights:
    @given(
        total=st.integers(10, 10**7),
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_conserves_total(self, total, weights):
        shares = split_by_weights(total, weights)
        assert sum(shares) == total
        assert all(share >= 0 for share in shares)

    def test_proportionality(self):
        assert split_by_weights(100, [3.0, 1.0]) == [75, 25]

    def test_minimums_are_respected(self):
        shares = split_by_weights(100, [1.0, 0.0], minimums=[0, 10])
        assert shares[1] >= 10 and sum(shares) == 100

    def test_rejects_negative_weights(self):
        with pytest.raises(CompilationError):
            split_by_weights(10, [-1.0, 2.0])


# ---------------------------------------------------------------------------
# satellite property test: the per-array even split under one byte budget
# never over-allocates, yet reaches the budget to within one slab line per
# array (plus sub-element change) whenever no array is clamped to its full
# local size.
# ---------------------------------------------------------------------------
class TestEvenSplitAllocation:
    @given(
        n=st.sampled_from([32, 48, 64, 96]),
        nprocs=st.sampled_from([1, 2, 4]),
        budget=st.integers(4 * 64, 4 * 64 * 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_allocated_bytes_bounded_by_budget_within_one_line(
        self, n, nprocs, budget
    ):
        ir = build_elementwise_ir(n, nprocs)
        itemsize = ir.arrays["a"].itemsize
        local = max(
            ir.arrays["a"].local_shape(r)[0] * ir.arrays["a"].local_shape(r)[1]
            for r in range(nprocs)
        )
        names = ("a", "b", "c")
        # One slab line (column strategy: one local column) per array must fit.
        line = max(ir.arrays["a"].local_shape(0)[0], 1)
        if budget // len(names) < (line + 1) * itemsize:
            return  # too small for a whole line; the compiler clamps to one line
        compiled = compile_program(ir, memory_budget_bytes=budget)
        entries = compiled.plan.entries
        allocated = sum(entries[name].slab_elements for name in names) * itemsize
        assert allocated <= budget, "allocation exceeded the byte budget"
        if all(entries[name].slab_elements < local for name in names):
            # Not clamped: the shortfall is less than one slab line plus one
            # element of slack per array.
            slack = sum((line + 1) * itemsize for _ in names)
            assert budget - allocated < slack

    def test_odd_budget_not_worse_than_floored_budget(self):
        # Redistributing the remainder can only grow the common slab.
        ir = build_elementwise_ir(64, 2)
        odd = compile_program(ir, memory_budget_bytes=3 * 4096 + 2)
        floored = compile_program(ir, memory_budget_bytes=3 * 4096)
        assert (
            odd.plan.entries["a"].slab_elements
            >= floored.plan.entries["a"].slab_elements
        )


# ---------------------------------------------------------------------------
# search-space enumeration
# ---------------------------------------------------------------------------
class TestSpace:
    def test_even_choice_matches_split_evenly(self):
        ir = build_pipeline_ir(64, 4)
        choice = even_choice(ir, 100_001)
        assert sum(choice.statement_budgets) == 100_001
        assert choice.policies == ("proportional", "-")

    def test_budget_grid_conserves_total(self):
        vectors = list(budget_grid(10_000, 3, 12))
        assert len(vectors) == 55  # C(11, 2)
        for vector in vectors:
            assert sum(vector) == 10_000
            assert all(b >= 1 for b in vector)

    def test_transfer_neighbors_conserve_total(self):
        for moved in transfer_neighbors((100, 200, 300), 50):
            assert sum(moved) == 600
        assert len(list(transfer_neighbors((100, 200), 150))) == 1  # one donor fits

    def test_plan_choice_validates(self):
        with pytest.raises(CompilationError):
            PlanChoice((100,), ("proportional", "-"))
        with pytest.raises(CompilationError):
            PlanChoice((0, 100), ("proportional", "-"))

    def test_plan_choice_describe(self):
        choice = PlanChoice((100, 200), ("proportional", "-"))
        assert choice.describe() == "s0:100B/proportional s1:200B/-"
        assert choice.total_budget == 300

    def test_policy_instance_rejects_unknown_names(self):
        from repro.planner import policy_instance

        with pytest.raises(CompilationError, match="unknown allocation policy"):
            policy_instance("random")

    def test_zero_weights_fall_back_to_even_split(self):
        assert split_by_weights(10, [0.0, 0.0]) == [5, 5]


# ---------------------------------------------------------------------------
# the no-worse guarantee over the differential matrix
# ---------------------------------------------------------------------------
N = 16
BUDGET = 6 * 1024  # small enough that every N=16 program is genuinely slabbed

def _cost_key(cost):
    return (cost.total_time, cost.io_time, cost.io_bytes)


@pytest.mark.parametrize("scenario", PLANNED, ids=str)
@pytest.mark.parametrize("optimizer", ["greedy", "exhaustive"])
def test_planner_no_worse_than_even_split(scenario, optimizer):
    even = compile_program(scenario.ir(), memory_budget_bytes=BUDGET, optimizer="none")
    optimized = compile_program(scenario.ir(), memory_budget_bytes=BUDGET, optimizer=optimizer)
    assert _cost_key(optimized.predicted_cost) <= _cost_key(even.predicted_cost)
    decision = optimized.planner
    assert decision is not None and decision.optimizer == optimizer
    assert decision.predicted_total_time <= decision.even_total_time
    assert decision.improvement >= 1.0


@pytest.mark.parametrize("scenario", PLANNED, ids=str)
def test_planner_matches_oracle_and_mode_parity(scenario, tmp_path):
    """Optimized plans still execute correctly and charge mode-invariant I/O."""
    compiled = compile_program(scenario.ir(), memory_budget_bytes=BUDGET, optimizer="greedy")
    assert_matches_oracle(compiled, tmp_path / "exec")

    from repro.core.pipeline import CompiledWholeProgram
    from repro.runtime.executor import NodeProgramExecutor, ProgramExecutor
    from repro.runtime.operands import input_operands

    dense = input_operands(compiled.program, 11)
    counters = {}
    for mode in (ExecutionMode.ESTIMATE, ExecutionMode.EXECUTE):
        with VirtualMachine(
            compiled.nprocs,
            compiled.params,
            RunConfig(scratch_dir=tmp_path / mode.value, mode=mode),
        ) as vm:
            if isinstance(compiled, CompiledWholeProgram):
                executor = ProgramExecutor(compiled)
                result = (
                    executor.estimate(vm)
                    if mode is ExecutionMode.ESTIMATE
                    else executor.execute(vm, dense, verify=False)
                )
            else:
                executor = NodeProgramExecutor(compiled)
                result = (
                    executor.run(vm, None, verify=False)
                    if mode is ExecutionMode.ESTIMATE
                    else executor.execute(vm, dense, verify=False)
                )
            counters[mode] = {
                key: result.io_statistics.get(key)
                for key in (
                    "io_requests_per_proc",
                    "bytes_read_per_proc",
                    "bytes_written_per_proc",
                )
            }
    assert counters[ExecutionMode.ESTIMATE] == counters[ExecutionMode.EXECUTE]


# ---------------------------------------------------------------------------
# search behaviour specifics
# ---------------------------------------------------------------------------
class TestSearchStrategies:
    def test_greedy_shifts_budget_toward_the_reduction(self):
        # In t = a @ b; c = t + d the elementwise statement's I/O volume is
        # slab-invariant while the reduction's re-reads shrink with memory:
        # the search must give the reduction statement the larger share.
        ir = build_pipeline_ir(256, 4)
        optimized = compile_whole_program(
            ir, memory_budget_bytes=48 * 1024, optimizer="greedy"
        )
        even = compile_whole_program(ir, memory_budget_bytes=48 * 1024)
        budgets = optimized.planner.statement_budgets
        assert budgets[0] > budgets[1]
        assert optimized.cost.total_time < even.cost.total_time
        assert optimized.cost.io_bytes < even.cost.io_bytes

    def test_optimizer_none_reproduces_even_split(self):
        ir = build_pipeline_ir(64, 4)
        legacy = compile_whole_program(ir, memory_budget_bytes=32 * 1024 + 1)
        assert legacy.planner.optimizer == "none"
        assert legacy.planner.statement_budgets == (16_385, 16_384)
        assert legacy.planner.predicted_total_time == legacy.planner.even_total_time

    @pytest.mark.parametrize("optimizer", ["beam", "exhaustive"])
    def test_other_strategies_at_least_match_even(self, optimizer):
        ir = build_pipeline_ir(256, 4)
        even = compile_whole_program(ir, memory_budget_bytes=48 * 1024)
        optimized = compile_whole_program(
            ir, memory_budget_bytes=48 * 1024, optimizer=optimizer
        )
        assert optimized.cost.total_time <= even.cost.total_time

    def test_conflicting_slab_specs_rejected_with_optimizer_too(self):
        # The exactly-one-spec validation must run before the planner
        # fast-path, not only on the legacy path.
        with pytest.raises(CompilationError, match="exactly one of"):
            compile_program(
                build_gaxpy_ir(N, 4),
                memory_budget_bytes=BUDGET,
                slab_ratio=0.25,
                optimizer="greedy",
            )

    def test_unknown_optimizer_is_rejected(self):
        with pytest.raises(CompilationError, match="unknown plan optimizer"):
            compile_whole_program(
                build_pipeline_ir(64, 4),
                memory_budget_bytes=32 * 1024,
                optimizer="simulated-annealing",
            )

    def test_optimizers_tuple_is_public(self):
        assert set(OPTIMIZERS) == {"none", "greedy", "beam", "exhaustive"}

    def test_pinned_policy_bypasses_the_search(self):
        compiled = compile_whole_program(
            build_pipeline_ir(64, 4),
            memory_budget_bytes=32 * 1024,
            policy=EqualAllocation(),
            optimizer="greedy",
        )
        assert compiled.planner is None

    def test_plan_whole_program_returns_compiled_statements(self):
        from repro.machine.parameters import touchstone_delta

        ir = build_pipeline_ir(64, 4)
        decision, units = plan_whole_program(
            ir, touchstone_delta(), 64 * 1024, optimizer="greedy"
        )
        assert len(units) == 2
        assert sum(decision.statement_budgets) == 64 * 1024

    def test_budget_too_small_raises_legacy_message(self):
        with pytest.raises(CompilationError, match="cannot be split"):
            compile_whole_program(build_pipeline_ir(64, 4), memory_budget_bytes=1)

    def test_infeasible_even_split_surfaces_the_real_error(self):
        # 16 bytes over two statements: each statement's split cannot cover
        # one slab line per array, and the planner must surface the original
        # allocation error instead of swallowing it as "infeasible".
        with pytest.raises(ReproError):
            compile_whole_program(
                build_pipeline_ir(64, 4), memory_budget_bytes=16, optimizer="greedy"
            )

    def test_decision_describe_and_whole_program_describe(self):
        compiled = compile_whole_program(
            build_pipeline_ir(256, 4), memory_budget_bytes=48 * 1024, optimizer="greedy"
        )
        text = compiled.describe()
        assert "plan optimizer [greedy]" in text
        assert "chosen budgets" in text
        choice = compiled.planner.choice
        assert sum(choice.statement_budgets) == 48 * 1024


# ---------------------------------------------------------------------------
# executed numerics of a searched three-statement program
# ---------------------------------------------------------------------------
def test_three_statement_chain_executes_under_every_optimizer(tmp_path):
    for optimizer in ("none", "greedy"):
        compiled = compile_program(
            CHAIN.ir(), memory_budget_bytes=9 * 1024, optimizer=optimizer
        )
        outputs = assert_matches_oracle(compiled, tmp_path / optimizer)
        assert set(outputs) == {"t", "u", "c"}
        assert np.isfinite(compiled.cost.total_time)


# ---------------------------------------------------------------------------
# pricing and lowering are one path: price == plan_statement == compile_program
# ---------------------------------------------------------------------------
BUILDERS = {
    "gaxpy": build_gaxpy_ir,
    "elementwise": build_elementwise_ir,
    "transpose": build_transpose_ir,
}


def _price(unit):
    """``CostModel.price`` of a planned or compiled unit from its slab counts alone."""
    slabs = {name: entry.num_slabs for name, entry in unit.plan.entries.items()}
    return CostModel(unit.params, unit.nprocs).price(unit.analysis, unit.plan.strategy, slabs)


def assert_price_is_plan_is_compile(build, **spec):
    """price == plan_statement(...).cost == compile_program(...).plan.cost, exactly."""
    try:
        planned = plan_statement(build(), **spec)
    except ReproError as refused:
        with pytest.raises(type(refused)):
            compile_program(build(), **spec)
        return None
    compiled = compile_program(build(), **spec)
    assert planned.cost == compiled.plan.cost  # every field, the arrays dict included
    assert planned.plan == compiled.plan
    assert planned.decision == compiled.decision
    cost = planned.cost
    price = _price(planned)
    assert price == cost.price == _price(compiled)
    assert tuple(price) == (
        cost.io_time, cost.compute_time, cost.comm_time, cost.io_elements, cost.io_requests
    )
    assert price.total_time == cost.total_time
    return compiled


class TestPriceEqualsPlanEqualsCompile:
    @given(
        kind=st.sampled_from(sorted(BUILDERS)),
        n=st.integers(4, 40),
        nprocs=st.sampled_from([1, 2, 3, 4]),
        dtype=st.sampled_from(["float32", "float64"]),
        budget=st.integers(64, 16 * 1024),
        policy=st.sampled_from(
            [None, EqualAllocation(), ProportionalAllocation(),
             SearchAllocation(), SearchAllocation(fractions=31)]
        ),
        strategies=st.sampled_from([("column", "row"), ("row", "column"), ("column",), ("row",)]),
        force=st.sampled_from([None, "column", "row"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_under_a_memory_budget(
        self, kind, n, nprocs, dtype, budget, policy, strategies, force
    ):
        if force is not None and force not in strategies:
            return  # the reorganizer only forces a strategy it enumerated
        assert_price_is_plan_is_compile(
            lambda: BUILDERS[kind](n, nprocs, dtype=dtype),
            memory_budget_bytes=budget,
            policy=policy,
            strategies=strategies,
            force_strategy=force,
        )

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_on_the_seeded_slab_ratio_grid(self, kind):
        from tests.test_compile_properties import SEED, _random_configs

        for n, nprocs, slab_ratio in _random_configs(SEED, 12):
            for force in (None, "column", "row"):
                assert_price_is_plan_is_compile(
                    lambda n=n, nprocs=nprocs: BUILDERS[kind](n, nprocs),
                    slab_ratio=slab_ratio,
                    force_strategy=force,
                )

    def test_fused_pairs(self):
        from tests.test_fusion import BUDGET as FUSION_BUDGET
        from tests.test_fusion import ELEMENTWISE_PAIR_SOURCE, _chain_source

        fused_units = 0
        for source in (ELEMENTWISE_PAIR_SOURCE, _chain_source(2), _chain_source(3)):
            ir = frontend_to_ir(parse_program(source))
            compiled = compile_whole_program(
                ir, memory_budget_bytes=FUSION_BUDGET, optimizer="greedy", fusion="on"
            )
            decision = compiled.planner
            model = CostModel(compiled.params, compiled.nprocs)
            fused = [u for u in compiled.statements
                     if isinstance(u.analysis, FusedElementwisePhase)]
            assert len(fused) == len(decision.fused_edges) > 0
            for edge, unit in zip(decision.fused_edges, fused, strict=True):
                members = [
                    plan_statement(
                        ir.statement_program(i),
                        compiled.params,
                        memory_budget_bytes=decision.statement_budgets[i],
                    )
                    for i in (edge, edge + 1)
                ]
                price = price_fused_pair(edge, *members, model)
                rebuilt = fuse_statement_pair(ir, edge, *members, compiled.params)
                assert rebuilt.plan == unit.plan
                assert rebuilt.node_program == unit.node_program
                assert price == unit.plan.cost.price == _price(unit)
                fused_units += 1
            # the decision's numbers are the assembled program's, bit for bit
            assert decision.predicted_total_time == compiled.cost.total_time
            assert decision.predicted_io_time == compiled.cost.io_time
            assert decision.predicted_io_bytes == compiled.cost.io_bytes
        assert fused_units >= 3


class TestPriceMonotonicity:
    """Table 2's premise: at a fixed strategy, a larger slab of any one array
    never costs more I/O time nor more requests."""

    @given(
        kind=st.sampled_from(sorted(BUILDERS)),
        n=st.integers(4, 36),
        nprocs=st.sampled_from([1, 2, 3, 4]),
        strategy=st.sampled_from(list(SlabbingStrategy)),
    )
    @settings(max_examples=60, deadline=None)
    def test_io_time_and_requests_fall_with_lines_per_slab(self, kind, n, nprocs, strategy):
        if kind == "transpose":
            strategy = SlabbingStrategy.COLUMN  # the only slabbing it has
        ir = BUILDERS[kind](n, nprocs)
        planned = plan_statement(ir, slab_ratio=1.0, force_strategy=strategy)
        model = CostModel(planned.params, planned.nprocs)
        local = local_elements(ir)
        entries = planned.plan.entries

        def slabs_with(name, lines):
            counts = {other: 1 for other in entries}
            entry = entries[name]
            per_line, _, _ = slab_lines(entry.local_shape, entry.strategy, 1)
            _, got, counts[name] = slab_lines(entry.local_shape, entry.strategy, lines * per_line)
            assert got == lines
            return counts

        for name, entry in entries.items():
            rows, cols = entry.local_shape
            most = max(cols if entry.strategy is SlabbingStrategy.COLUMN else rows, 1)
            prices = [
                model.price(planned.analysis, strategy, slabs_with(name, lines), local)
                for lines in range(1, most + 1)
            ]
            for smaller, larger in zip(prices, prices[1:]):
                assert larger.io_time <= smaller.io_time
                assert larger.io_requests <= smaller.io_requests
                assert larger.io_elements <= smaller.io_elements
            # one slab per array is the in-core volume: nothing is read twice
            assert prices[-1].io_requests >= len(entries)


class TestSearchLowersOnlyTheWinner:
    @pytest.mark.parametrize("optimizer", ["greedy", "exhaustive"])
    def test_one_codegen_per_unit_one_analysis_per_statement(self, monkeypatch, optimizer):
        import repro.core.pipeline as pipeline
        import repro.planner.search as search

        calls = {"generate_node_program": 0, "analyze_program": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            pipeline, "generate_node_program",
            counted("generate_node_program", pipeline.generate_node_program),
        )
        analyze = counted("analyze_program", pipeline.analyze_program)
        monkeypatch.setattr(pipeline, "analyze_program", analyze)
        monkeypatch.setattr(search, "analyze_program", analyze)

        ir = CHAIN.ir()
        compiled = compile_program(
            ir, memory_budget_bytes=9 * 1024, optimizer=optimizer, fusion="on"
        )
        assert compiled.planner.candidates_evaluated > len(ir.statements)
        assert calls["generate_node_program"] <= len(compiled.statements)
        assert calls["analyze_program"] == len(ir.statements)
