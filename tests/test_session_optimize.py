"""Session-level plan optimization: the ``optimize`` knob, per-point sweep
overrides, the planner-cache stats, and the compile-cache keying fix (two
budget-allocation policies must never share one cached compilation)."""

import pytest

from repro.api import Session, WorkloadPoint
from repro.config import RunConfig
from repro.exceptions import CompilationError, WorkloadError
from tests.scenarios import hpf_source


N = 256
NPROCS = 4
BUDGET = 48 * 1024

PIPELINE_SOURCE = hpf_source("mm_add", N, NPROCS)


def _budget_point(**kwargs) -> WorkloadPoint:
    return WorkloadPoint(
        "hpf",
        options={"source": PIPELINE_SOURCE, "memory_budget_bytes": BUDGET},
        **kwargs,
    )


# ---------------------------------------------------------------------------
# the optimize knob and its resolution order
# ---------------------------------------------------------------------------
class TestOptimizeKnob:
    def test_session_default_is_greedy(self):
        session = Session()
        assert session.optimize == "greedy"
        compiled = session.compile(_budget_point())
        assert compiled.point.optimize == "greedy"
        assert compiled.program.planner is not None
        assert compiled.program.planner.optimizer == "greedy"

    def test_point_field_wins_over_session_default(self):
        session = Session(optimize="greedy")
        compiled = session.compile(_budget_point(optimize="none"))
        assert compiled.point.optimize == "none"
        assert compiled.program.planner.optimizer == "none"

    def test_call_override_wins_over_point_field(self):
        session = Session()
        compiled = session.compile(_budget_point(optimize="none"), optimize="greedy")
        assert compiled.point.optimize == "greedy"

    def test_invalid_choices_are_rejected(self):
        with pytest.raises(WorkloadError, match="unknown optimize"):
            WorkloadPoint("gaxpy", n=8, slab_ratio=0.5, optimize="anneal")
        with pytest.raises(CompilationError, match="unknown plan optimizer"):
            Session(optimize="anneal")

    def test_greedy_plan_no_worse_than_even_in_record(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        even = session.estimate(_budget_point(optimize="none"))
        greedy = session.estimate(_budget_point(optimize="greedy"))
        assert greedy.plan["predicted_seconds"] <= even.plan["predicted_seconds"]
        assert (
            greedy.plan["predicted_seconds"] <= greedy.plan["even_predicted_seconds"]
        )
        assert greedy.plan["optimizer"] == "greedy"
        assert len(greedy.plan["statement_budgets"]) == 2

    def test_slab_ratio_points_report_no_search_ran(self):
        session = Session()
        record = session.estimate(
            WorkloadPoint("gaxpy", n=32, nprocs=2, version="row", slab_ratio=0.5)
        )
        # The session default is greedy, but slab_ratio compilations have no
        # budget to search: the record must say what actually happened.
        assert record.plan["optimizer"] == "none"
        assert "statement_budgets" not in record.plan
        assert record.plan["predicted_seconds"] > 0


# ---------------------------------------------------------------------------
# the compile-cache keying fix
# ---------------------------------------------------------------------------
class TestCompileCacheKeying:
    def test_policies_do_not_share_cache_entries(self):
        session = Session()
        even = session.compile(_budget_point(), optimize="none")
        greedy = session.compile(_budget_point(), optimize="greedy")
        info = session.cache_info()
        assert info["misses"] == 2 and info["hits"] == 0
        assert even is not greedy
        # And the plans genuinely differ on this I/O-bound pipeline.
        assert (
            greedy.program.planner.statement_budgets
            != even.program.planner.statement_budgets
        )

    def test_same_policy_still_hits(self):
        session = Session()
        first = session.compile(_budget_point())
        second = session.compile(_budget_point())
        assert first is second
        assert session.cache_info()["hits"] == 1

    def test_planner_stats_in_cache_info(self):
        session = Session()
        info = session.cache_info()
        for key in ("planner_hits", "planner_misses", "planner_stores",
                    "planner_size", "planner_persistent"):
            assert key in info
        assert info["planner_persistent"] == 0
        session.compile(_budget_point())
        after = session.cache_info()
        assert after["planner_misses"] == 1 and after["planner_stores"] == 1


# ---------------------------------------------------------------------------
# sweep: per-point overrides and the summary
# ---------------------------------------------------------------------------
class TestSweepOptimize:
    def test_per_point_override_list(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        records = session.sweep(
            [_budget_point(), _budget_point()],
            mode="estimate",
            optimize=["none", "greedy"],
        )
        assert [r.plan["optimizer"] for r in records] == ["none", "greedy"]
        assert records[1].plan["predicted_seconds"] <= records[0].plan[
            "predicted_seconds"
        ]

    def test_override_length_mismatch_raises(self):
        session = Session()
        with pytest.raises(WorkloadError, match="optimize"):
            session.sweep([_budget_point()], optimize=["none", "greedy"])

    def test_summary_reports_cache_deltas(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        points = [_budget_point(), _budget_point(), _budget_point()]
        result = session.sweep(points, mode="estimate", optimize="greedy")
        assert result.summary["points"] == 3
        # One real compile + one planner search; the repeats hit the caches.
        assert result.summary["compile_misses"] == 1
        assert result.summary["compile_hits"] == 2
        assert result.summary["planner_misses"] == 1
        assert result.summary["optimizers"] == {"greedy": 3}
        # A second sweep replays the session plan cache for fresh compiles.
        session.clear_cache()
        again = session.sweep(points[:1], mode="estimate", optimize="greedy")
        assert again.summary["planner_hits"] == 1

    def test_sweep_result_is_a_list(self):
        session = Session()
        result = session.sweep(
            [WorkloadPoint("gaxpy", n=16, nprocs=2, version="row", slab_ratio=0.5)],
            mode="estimate",
        )
        assert isinstance(result, list) and len(result) == 1
        # A slab_ratio point searched nothing, and the summary says so.
        assert result.summary["optimizers"] == {"none": 1}

    def test_parallel_sweep_matches_sequential(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        points = [_budget_point(optimize="none"), _budget_point(optimize="greedy")]
        sequential = session.sweep(points, mode="estimate")
        parallel = session.sweep(points, mode="estimate", workers=2)
        for one, two in zip(sequential, parallel, strict=True):
            assert one.simulated_seconds == two.simulated_seconds
            assert one.plan["optimizer"] == two.plan["optimizer"]


# ---------------------------------------------------------------------------
# persistent session plan cache
# ---------------------------------------------------------------------------
class TestSessionPlanCachePersistence:
    def test_new_session_replays_from_disk(self, tmp_path):
        cache_dir = tmp_path / "plans"
        first = Session(plan_cache_dir=cache_dir)
        first.compile(_budget_point())
        assert first.cache_info()["planner_stores"] == 1

        second = Session(plan_cache_dir=cache_dir)
        compiled = second.compile(_budget_point())
        info = second.cache_info()
        assert info["planner_hits"] == 1 and info["planner_misses"] == 0
        assert compiled.program.planner.cache_status == "hit"

    def test_earlier_session_does_not_shadow_a_later_plan_cache(self, tmp_path):
        """A Session's plan cache sees every search of that Session, whatever
        other Sessions of the process compiled before it."""
        point = _budget_point(optimize="greedy")
        Session().compile(point)

        cache_dir = tmp_path / "plans"
        second = Session(plan_cache_dir=cache_dir)
        second.compile(point)
        info = second.cache_info()
        assert info["planner_misses"] == 1 and info["planner_stores"] == 1
        assert len(list(cache_dir.iterdir())) == 1

        third = Session(plan_cache_dir=cache_dir)
        record = third.estimate(point)
        assert third.cache_info()["planner_hits"] == 1
        assert record.plan["planner_cache"] == "hit"

    def test_executed_record_matches_estimate_counters(self, tmp_path):
        """ESTIMATE == EXECUTE parity holds for planner-chosen plans."""
        session = Session(config=RunConfig(scratch_dir=tmp_path / "scratch"))
        point = _budget_point(optimize="greedy")
        estimate = session.estimate(point)
        execute = session.execute(point)
        assert execute.verified is True
        for field in ("io_requests_per_proc", "io_read_bytes_per_proc",
                      "io_write_bytes_per_proc"):
            assert getattr(estimate, field) == getattr(execute, field)
        assert estimate.plan == execute.plan
