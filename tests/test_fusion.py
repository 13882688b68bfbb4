"""Statement fusion: legality, pricing, execution, caching.

The tentpole under test: when a producer's result slabs are conformal with
its single consumer's operand slabs, the planner may compile the pair into
one fused unit whose slab loop runs both statements' per-slab work with the
intermediate resident — the intermediate's Local Array Files are never
written or read, in ESTIMATE and EXECUTE mode alike.

Guarantees pinned here:

* legality — diamond dataflow, reduction producers/consumers, multi-use
  intermediates, program outputs and non-conformal slab plans all refuse to
  fuse;
* no-worse — with fusion on, the chosen plan's predicted cost never exceeds
  the unfused even split (the optimizer's baseline safety net);
* charge parity — fused ESTIMATE counters equal fused EXECUTE counters, and
  the static verifier's symbolic ledger agrees with both;
* numerics — every 1–4-statement chain still matches the NumPy oracle;
* caching — the fusion mode is part of the plan-cache fingerprint and the
  compile cache key, and cached fused decisions replay exactly.
"""

import pytest

from repro.api import Session, WorkloadPoint
from repro.check import check_compiled
from repro.config import ExecutionMode, RunConfig
from repro.core.analysis import FusedElementwisePhase
from repro.core.pipeline import (
    compile_program,
    compile_whole_program,
    fuse_statement_pair,
    normalize_fusion,
)
from repro.exceptions import CompilationError
from repro.hpf.frontend import frontend_to_ir
from repro.hpf.parser import parse_program
from repro.machine.parameters import MachineParameters
from repro.planner import plan_whole_program
from repro.planner.plan_cache import PlanCache, plan_fingerprint
from repro.planner.space import PlanChoice, fusable_edges, fusion_masks
from repro.runtime.executor import ProgramExecutor
from repro.runtime.vm import VirtualMachine

from tests.scenarios import hpf_source
from repro.runtime.operands import input_operands
from tests.test_differential import assert_matches_oracle

N = 16
NPROCS = 4
BUDGET = 8 * 1024


def _chain_source(n_elementwise: int) -> str:
    """A reduction followed by ``n_elementwise`` chained elementwise statements."""
    return hpf_source(f"mm_chain{n_elementwise}", N, NPROCS)


ELEMENTWISE_PAIR_SOURCE = hpf_source("pair", N, NPROCS)

DIAMOND_SOURCE = """
program diamond
  parameter (n = 16, nprocs = 4)
  real a(n, n), b(n, n), t(n, n), d(n, n), c(n, n), e(n, n), f(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template tmpl(n)
!hpf$ distribute tmpl(block) onto Pr
!hpf$ align a(*, :) with tmpl
!hpf$ align b(*, :) with tmpl
!hpf$ align t(*, :) with tmpl
!hpf$ align d(*, :) with tmpl
!hpf$ align c(*, :) with tmpl
!hpf$ align e(*, :) with tmpl
!hpf$ align f(*, :) with tmpl
  t(:, :) = add(a(:, :), b(:, :))
  c(:, :) = multiply(t(:, :), d(:, :))
  f(:, :) = subtract(t(:, :), e(:, :))
end program
"""

INDEPENDENT_SOURCE = """
program independent
  parameter (n = 16, nprocs = 4)
  real a(n, n), b(n, n), t(n, n), d(n, n), e(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template tmpl(n)
!hpf$ distribute tmpl(block) onto Pr
!hpf$ align a(*, :) with tmpl
!hpf$ align b(*, :) with tmpl
!hpf$ align t(*, :) with tmpl
!hpf$ align d(*, :) with tmpl
!hpf$ align e(*, :) with tmpl
!hpf$ align c(*, :) with tmpl
  t(:, :) = add(a(:, :), b(:, :))
  c(:, :) = multiply(d(:, :), e(:, :))
end program
"""


def _ir(source):
    return frontend_to_ir(parse_program(source))


def _compile(source, *, fusion="off", optimizer="greedy", budget=BUDGET):
    return compile_program(
        _ir(source),
        MachineParameters(),
        memory_budget_bytes=budget,
        optimizer=optimizer,
        fusion=fusion,
    )


def _estimate_io(compiled):
    vm = VirtualMachine(
        compiled.nprocs, compiled.params, RunConfig(mode=ExecutionMode.ESTIMATE)
    )
    ProgramExecutor(compiled).estimate(vm)
    return vm.io_statistics()


# ---------------------------------------------------------------------------
# plan-space legality
# ---------------------------------------------------------------------------
class TestFusableEdges:
    def test_elementwise_pair_has_one_edge(self):
        assert fusable_edges(_ir(ELEMENTWISE_PAIR_SOURCE)) == (0,)

    def test_reduction_producer_refused(self):
        # t = a @ b feeds the first elementwise statement; reductions never fuse.
        assert fusable_edges(_ir(_chain_source(2))) == (1,)

    def test_diamond_dataflow_refused(self):
        # t has two consumers: fusing it into either would starve the other.
        assert fusable_edges(_ir(DIAMOND_SOURCE)) == ()

    def test_program_output_refused(self):
        # t is never consumed — a program output, not an intermediate; fusing
        # it away would drop an observable result.
        assert fusable_edges(_ir(INDEPENDENT_SOURCE)) == ()

    def test_preserve_set_vetoes_an_edge(self):
        ir = _ir(ELEMENTWISE_PAIR_SOURCE)
        assert fusable_edges(ir, preserve=("t",)) == ()

    def test_four_statement_chain_edges(self):
        # reduction -> r0 -> r1 -> r2: edges (1, 2) share r1, masks never
        # fuse both at once.
        ir = _ir(_chain_source(3))
        edges = fusable_edges(ir)
        assert edges == (1, 2)
        masks = list(fusion_masks(edges))
        assert () in masks
        assert (1,) in masks and (2,) in masks
        assert (1, 2) not in masks


class TestPlanChoiceFusion:
    def test_rejects_adjacent_edges(self):
        with pytest.raises(CompilationError):
            PlanChoice((1024, 1024, 1024, 1024), ("even",) * 4, fused_edges=(0, 1))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(CompilationError):
            PlanChoice((1024, 1024), ("even", "even"), fused_edges=(1,))

    def test_describe_names_the_pair(self):
        choice = PlanChoice((1024, 1024), ("even", "even"), fused_edges=(0,))
        assert "fuse(s0,s1)" in choice.describe()


# ---------------------------------------------------------------------------
# compile-time refusals
# ---------------------------------------------------------------------------
class TestConformality:
    def test_non_conformal_slab_extents_refuse_to_fuse(self):
        ir = _ir(ELEMENTWISE_PAIR_SOURCE)
        params = MachineParameters()
        producer = compile_program(
            ir.statement_program(0), params,
            slab_elements={"a": 64, "b": 64, "t": 64},
        )
        consumer = compile_program(
            ir.statement_program(1), params,
            slab_elements={"t": 32, "d": 32, "c": 32},
        )
        with pytest.raises(CompilationError):
            fuse_statement_pair(ir, 0, producer, consumer, params)

    def test_strategy_mismatch_refuses_to_fuse(self):
        ir = _ir(ELEMENTWISE_PAIR_SOURCE)
        params = MachineParameters()
        producer = compile_program(
            ir.statement_program(0), params, slab_ratio=0.5,
            force_strategy="column",
        )
        consumer = compile_program(
            ir.statement_program(1), params, slab_ratio=0.5,
            force_strategy="row",
        )
        with pytest.raises(CompilationError):
            fuse_statement_pair(ir, 0, producer, consumer, params)

    def test_conformal_pair_fuses(self):
        ir = _ir(ELEMENTWISE_PAIR_SOURCE)
        params = MachineParameters()
        units = [
            compile_program(
                ir.statement_program(i), params,
                slab_elements={name: 64 for name in
                               (s.result.array,) + tuple(r.array for r in s.operands)},
            )
            for i, s in enumerate(ir.statements)
        ]
        fused = fuse_statement_pair(ir, 0, units[0], units[1], params)
        assert isinstance(fused.analysis, FusedElementwisePhase)
        assert fused.analysis.intermediate == "t"
        # The fused plan charges the intermediate zero traffic.
        assert "t" not in fused.plan.cost.arrays


class TestNormalizeFusion:
    def test_modes(self):
        assert normalize_fusion(None) == "off"
        assert normalize_fusion("on") == "auto"
        assert normalize_fusion("auto") == "auto"
        assert normalize_fusion("off") == "off"

    def test_rejects_unknown(self):
        with pytest.raises(CompilationError):
            normalize_fusion("always")


# ---------------------------------------------------------------------------
# the planner's fusion dimension
# ---------------------------------------------------------------------------
class TestPlannerFusion:
    def test_off_is_the_default_and_never_fuses(self):
        compiled = _compile(_chain_source(2))
        assert compiled.planner.fused_edges == ()
        assert len(compiled.statements) == 3

    def test_on_fuses_the_legal_edge(self):
        compiled = _compile(_chain_source(2), fusion="on")
        assert compiled.planner.fused_edges == (1,)
        assert len(compiled.statements) == 2
        step = compiled.schedule.steps[-1]
        assert step.fused == ("r0",)

    def test_fused_charges_strictly_fewer_io_bytes(self):
        unfused = _compile(_chain_source(2))
        fused = _compile(_chain_source(2), fusion="on")
        assert fused.cost.io_bytes < unfused.cost.io_bytes
        stats_unfused = _estimate_io(unfused)
        stats_fused = _estimate_io(fused)
        fused_bytes = (stats_fused["bytes_read_per_proc"]
                       + stats_fused["bytes_written_per_proc"])
        unfused_bytes = (stats_unfused["bytes_read_per_proc"]
                         + stats_unfused["bytes_written_per_proc"])
        assert fused_bytes < unfused_bytes

    @pytest.mark.parametrize("optimizer", ["greedy", "beam", "exhaustive"])
    def test_no_worse_than_unfused_even_split(self, optimizer):
        ir = _ir(_chain_source(2))
        params = MachineParameters()
        decision, _ = plan_whole_program(
            ir, params, memory_budget_bytes=BUDGET,
            optimizer=optimizer, fusion="on",
        )
        # The even-split baseline seeds every search; fusion may only displace
        # it with strictly cheaper plans.
        assert decision.predicted_total_time <= decision.even_total_time

    def test_optimizer_none_disables_fusion(self):
        compiled = _compile(_chain_source(2), fusion="on", optimizer="none")
        assert compiled.planner.fused_edges == ()

    def test_diamond_never_fuses_under_search(self):
        compiled = compile_whole_program(
            _ir(DIAMOND_SOURCE), MachineParameters(),
            memory_budget_bytes=BUDGET, optimizer="greedy", fusion="on",
        )
        assert compiled.planner.fused_edges == ()

    def test_verifier_accepts_every_fused_plan(self):
        for n_elementwise in (1, 2, 3):
            compiled = _compile(_chain_source(n_elementwise), fusion="on")
            report = check_compiled(compiled)
            assert report.ok, report.describe()


# ---------------------------------------------------------------------------
# execution: parity, numerics
# ---------------------------------------------------------------------------
class TestFusedExecution:
    @pytest.mark.parametrize("n_elementwise", [1, 2, 3])
    def test_chain_matches_oracle_with_fusion(self, tmp_path, n_elementwise):
        compiled = _compile(_chain_source(n_elementwise), fusion="on")
        assert_matches_oracle(compiled, tmp_path)

    def test_pure_elementwise_pair_matches_oracle(self, tmp_path):
        compiled = _compile(ELEMENTWISE_PAIR_SOURCE, fusion="on")
        assert compiled.planner.fused_edges == (0,)
        assert len(compiled.statements) == 1
        assert_matches_oracle(compiled, tmp_path)

    def test_estimate_equals_execute_charges(self, tmp_path):
        compiled = _compile(_chain_source(2), fusion="on")
        estimate_stats = _estimate_io(compiled)
        dense = input_operands(compiled.program, 11)
        with VirtualMachine(
            compiled.nprocs, compiled.params, RunConfig(scratch_dir=tmp_path)
        ) as vm:
            result = ProgramExecutor(compiled).execute(vm, dense, verify=True)
            execute_stats = vm.io_statistics()
        assert result.verified is True
        assert estimate_stats == execute_stats

    def test_symbolic_ledger_matches_executed_counters(self):
        compiled = _compile(_chain_source(2), fusion="on")
        report = check_compiled(compiled)
        assert report.ok
        stats = _estimate_io(compiled)
        assert stats["bytes_read_per_proc"] == report.ledger.read_bytes
        assert stats["bytes_written_per_proc"] == report.ledger.write_bytes

    def test_fused_away_intermediate_has_no_laf(self, tmp_path):
        compiled = _compile(_chain_source(2), fusion="on")
        dense = input_operands(compiled.program, 11)
        with VirtualMachine(
            compiled.nprocs, compiled.params, RunConfig(scratch_dir=tmp_path)
        ) as vm:
            ProgramExecutor(compiled).execute(vm, dense, verify=True)
            assert "r0" not in vm.arrays  # never materialized
            assert "t" in vm.arrays  # the reduction's result still is


# ---------------------------------------------------------------------------
# caching: fingerprints, payloads, compile LRU
# ---------------------------------------------------------------------------
class TestFusionCaching:
    def test_plan_fingerprint_includes_fusion(self):
        ir = _ir(_chain_source(2))
        params = MachineParameters()
        common = dict(
            memory_budget_bytes=BUDGET, optimizer="greedy",
            strategies=("column", "row"), force_strategy=None,
        )
        off = plan_fingerprint(ir, params, fusion="off", **common)
        on = plan_fingerprint(ir, params, fusion="auto", **common)
        assert off != on

    def test_plan_cache_roundtrips_fused_edges(self, tmp_path):
        cache = PlanCache(tmp_path)
        choice = PlanChoice((4096, 2048, 2048), ("even",) * 3, fused_edges=(1,))
        cache.store("key", choice)
        fresh = PlanCache(tmp_path)
        replayed = fresh.lookup("key")
        assert replayed == choice
        assert replayed.fused_edges == (1,)

    def test_stale_payload_version_is_a_miss(self, tmp_path):
        import json
        cache = PlanCache(tmp_path)
        (tmp_path / "old.json").write_text(json.dumps({
            "version": 1,
            "statement_budgets": [4096, 4096],
            "policies": ["even", "even"],
        }))
        assert cache.lookup("old") is None

    def test_cached_fused_decision_replays(self):
        ir = _ir(_chain_source(2))
        params = MachineParameters()
        cache = PlanCache()
        first, _ = plan_whole_program(
            ir, params, memory_budget_bytes=BUDGET,
            optimizer="greedy", fusion="on", plan_cache=cache,
        )
        second, _ = plan_whole_program(
            ir, params, memory_budget_bytes=BUDGET,
            optimizer="greedy", fusion="on", plan_cache=cache,
        )
        assert first.fused_edges == second.fused_edges == (1,)
        assert second.cache_status == "hit"
        assert first.predicted_io_bytes == second.predicted_io_bytes

    def test_compile_cache_key_includes_fusion(self):
        session = Session(params=MachineParameters())
        base = dict(source=_chain_source(2), memory_budget_bytes=BUDGET)
        point_off = WorkloadPoint("hpf", optimize="greedy", options=base)
        point_on = WorkloadPoint(
            "hpf", optimize="greedy", options={**base, "fusion": "on"},
        )
        compiled_off = session.compile(point_off)
        compiled_on = session.compile(point_on)
        assert compiled_off is not compiled_on
        assert compiled_off.program.planner.fused_edges == ()
        assert compiled_on.program.planner.fused_edges == (1,)
        # Same point again: served from the Session LRU, same object.
        assert session.compile(point_on) is compiled_on


# ---------------------------------------------------------------------------
# the Session surface
# ---------------------------------------------------------------------------
class TestSessionFusion:
    def test_run_record_reports_fused_edges(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        point = WorkloadPoint(
            "hpf", optimize="greedy",
            options={"source": _chain_source(2),
                     "memory_budget_bytes": BUDGET, "fusion": "on"},
        )
        record = session.execute(point)
        assert record.verified is True
        assert tuple(record.plan["fused_edges"]) == (1,)

    def test_fusion_beats_unfused_through_the_session(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        base = {"source": _chain_source(2), "memory_budget_bytes": BUDGET}
        unfused = session.execute(
            WorkloadPoint("hpf", optimize="greedy", options=base)
        )
        fused = session.execute(
            WorkloadPoint("hpf", optimize="greedy",
                          options={**base, "fusion": "on"})
        )
        assert fused.verified is True and unfused.verified is True
        assert fused.io_bytes_per_proc < unfused.io_bytes_per_proc
