"""Integration tests for the experiment harness (scaled-down configurations).

The paper-scale shape assertions live in ``benchmarks/``; here the harness is
exercised end to end at small sizes, including the execute mode where the
arithmetic is really performed and verified.
"""

import math

import pytest

from repro.analysis.io_cost import paper_io_costs
from repro.analysis.report import format_markdown_table, format_table, format_time
from repro.api import Session, WorkloadPoint
from repro.config import ExecutionMode, RunConfig
from repro.exceptions import CostModelError, WorkloadError
from repro.experiments import (
    Figure10Config,
    MemoryAllocationAblationConfig,
    PrefetchAblationConfig,
    StorageOrderAblationConfig,
    Table1Config,
    Table2Config,
    run_figure10,
    run_memory_allocation_ablation,
    run_prefetch_ablation,
    run_storage_order_ablation,
    run_table1,
    run_table2,
)


# ---------------------------------------------------------------------------
# analytic helpers
# ---------------------------------------------------------------------------
class TestIOCostFormulas:
    def test_paper_numbers(self):
        costs = paper_io_costs(1024, 16, 16384)
        assert costs["column"]["T_fetch"] == pytest.approx(1024 ** 3 / (16384 * 16))
        assert costs["column"]["T_data"] == pytest.approx(1024 ** 3 / 16)
        assert costs["row"]["T_fetch"] == pytest.approx(1024 ** 2 / (16384 * 16))
        assert costs["row"]["T_data"] == pytest.approx(1024 ** 2 / 16)

    def test_column_to_row_ratio_is_n(self):
        n, p, m = 512, 8, 8192
        costs = paper_io_costs(n, p, m)
        assert costs["column"]["T_data"] / costs["row"]["T_data"] == pytest.approx(n)

    def test_validation(self):
        with pytest.raises(CostModelError):
            paper_io_costs(0, 4, 16)
        with pytest.raises(CostModelError):
            paper_io_costs(64, 4, 10 ** 9)


class TestReportFormatting:
    def test_format_table_aligns_columns(self):
        table = format_table(["a", "bb"], [[1, 2], [333, 4]], title="t")
        lines = table.splitlines()
        assert lines[0] == "t"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_markdown_table(self):
        md = format_markdown_table(["x", "y"], [[1, 2]])
        assert md.splitlines()[1] == "|---|---|"

    def test_format_time(self):
        assert format_time(1.234567) == "1.23"


# ---------------------------------------------------------------------------
# sweep driver
# ---------------------------------------------------------------------------
class TestSweep:
    def test_invalid_version_rejected(self):
        with pytest.raises(WorkloadError):
            Session().compile(
                WorkloadPoint("gaxpy", n=64, nprocs=4, version="diagonal", slab_ratio=0.5)
            )

    def test_out_of_core_point_needs_slab_spec(self):
        with pytest.raises(WorkloadError):
            Session().compile(WorkloadPoint("gaxpy", n=64, nprocs=4, version="row"))

    def test_estimate_and_execute_agree_on_io_counters(self, tmp_path):
        session = Session(config=RunConfig(scratch_dir=tmp_path))
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, version="row", slab_ratio=0.25)
        estimate = session.run(point, mode=ExecutionMode.ESTIMATE)
        execute = session.run(point, mode=ExecutionMode.EXECUTE)
        assert execute.io_requests_per_proc == pytest.approx(
            estimate.io_requests_per_proc, rel=0.05
        )
        assert execute.verified is True

    def test_sweep_returns_one_record_per_point(self):
        points = [
            WorkloadPoint("gaxpy", n=64, nprocs=2, version=v, slab_ratio=0.5)
            for v in ("column", "row")
        ] + [WorkloadPoint("gaxpy", n=64, nprocs=2, version="incore")]
        records = Session().sweep(points, mode=ExecutionMode.ESTIMATE)
        assert len(records) == 3
        assert {r.version for r in records} == {"column", "row", "incore"}

    def test_point_label(self):
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, version="row", slab_ratio=0.5)
        assert "row" in point.label()


# ---------------------------------------------------------------------------
# figures / tables at scaled-down size (execute mode)
# ---------------------------------------------------------------------------
class TestFigure10:
    def test_scaled_down_execute(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        config = Figure10Config().scaled_down()
        result = run_figure10(config)
        assert set(result["series"].keys()) == set(config.processor_counts)
        for series in result["series"].values():
            assert len(series) == len(config.slab_ratios)
            times = [t for _, t in sorted(series, key=lambda x: x[0], reverse=True)]
            assert all(t2 >= t1 * 0.999 for t1, t2 in zip(times, times[1:], strict=False))
        assert "Figure 10" in result["table"]


class TestTable1:
    def test_scaled_down_execute(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        config = Table1Config().scaled_down()
        result = run_table1(config)
        cells = result["cells"]
        for nprocs in config.processor_counts:
            for ratio in config.slab_ratios:
                assert cells[(ratio, nprocs, "row")] < cells[(ratio, nprocs, "column")]
            assert cells[("incore", nprocs)] <= cells[(max(config.slab_ratios), nprocs, "row")] * 1.01
        assert all(s > 1 for s in result["speedups"].values())
        assert "Table 1" in result["table"]

    def test_paper_reference_included_at_full_scale_only(self):
        small = run_table1(Table1Config(n=64, processor_counts=(2,), slab_ratios=(1.0,)))
        assert small["paper"] is None


class TestTable2:
    def test_scaled_down_execute(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        config = Table2Config().scaled_down()
        result = run_table2(config)
        best = result["best"]
        assert best["vary_a"]["time"] <= best["vary_b"]["time"] * 1.001
        assert len(result["rows"]) == 2 * len(config.varied_lines)
        assert "Table 2" in result["table"]

    def test_lines_to_elements(self):
        config = Table2Config(n=2048, nprocs=16)
        assert config.lines_to_elements("a", 256) == 256 * 128


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------
class TestAblations:
    def test_memory_allocation_policies_ordered(self):
        result = run_memory_allocation_ablation(
            MemoryAllocationAblationConfig(n=512, nprocs=8, memory_budget_bytes=64 * 1024)
        )
        rows = {r["policy"]: r for r in result["rows"]}
        assert rows["search"]["predicted_total_time"] <= rows["equal"]["predicted_total_time"] * 1.001
        assert rows["proportional"]["slab_a_elements"] >= rows["proportional"]["slab_b_elements"]

    def test_storage_order_inflation(self):
        result = run_storage_order_ablation(StorageOrderAblationConfig(n=256, nprocs=4))
        assert result["request_inflation"] > 1
        matched, mismatched = result["rows"]
        assert mismatched["read_time"] > matched["read_time"]

    def test_prefetch_savings_monotone_in_efficiency(self):
        result = run_prefetch_ablation(PrefetchAblationConfig(n=256, nprocs=4))
        savings = [r["savings"] for r in result["rows"]]
        assert savings == sorted(savings)
        assert math.isclose(savings[0], 0.0, abs_tol=1e-9)
