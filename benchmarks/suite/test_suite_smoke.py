"""Smoke test of the benchmark suite (collected by tier-1).

Runs every workload once at ``--scale tiny`` (N <= 128, one pass, no timing
claim), untraced and traced, and checks the shape of what comes out: every
metric of the tables is emitted under a well-formed name, the tables agree
with ``BENCHMARK.json``, spans nest, and a different seed changes the
``compile_sweep`` programs and the ``served_mix`` order and nothing else.
"""

from __future__ import annotations

import concurrent.futures
import json
import re
import subprocess
import sys

import pytest

from benchmarks.suite import ROOT, SUITE_DIR, harness, spans
from benchmarks.suite.metrics import (
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    end_to_end_table,
    per_layer_table,
)
from benchmarks.suite.workloads import WORKLOADS, build_plan

SEED = 7
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def runs():
    """Every workload at the smoke scale, untraced and traced, plus
    ``compile_sweep`` under a second seed; two at a time (nothing is timed)."""
    jobs = [(workload, SEED, traced) for workload in WORKLOADS for traced in (False, True)]
    jobs.append(("compile_sweep", SEED + 1, False))

    def one(job):
        workload, seed, traced = job
        if traced:
            return harness.run_traced(workload, seed, 0.0, "tiny")
        return harness.run_untraced(workload, seed, 0.0, "tiny")

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(one, jobs), strict=True))


def test_benchmark_json_matches_the_tables():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert document["paths"] == ["benchmarks/suite"]
    assert document["workloads"] == [{"name": n, "why": w} for n, w in WORKLOADS.items()]
    assert document["end_to_end"] == end_to_end_table()
    assert document["per_layer"] == per_layer_table()
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(why) <= 200 and "\n" not in why for why in WORKLOADS.values())
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in document["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_is_emitted_and_checks_pass(runs, workload):
    untraced, traced = runs[(workload, SEED, False)], runs[(workload, SEED, True)]
    for run, units in ((untraced, END_TO_END_UNITS), (traced, PER_LAYER_UNITS)):
        assert run["correct"] and run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 1
        assert {name: entry["unit"] for name, entry in run["metrics"].items()} == units
        # the contract's last line: exactly these keys, JSON-serialisable
        assert set(json.loads(harness.result_line(run))) == {
            "correct", "attempted", "failed", "metrics"}
    # an end-to-end metric is never zero, on any workload
    assert all(entry["value"] > 0 for entry in untraced["metrics"].values())
    # the issue's names the contract cannot carry are printed beside them
    partial = {"compile_sweep": {"compile_cold_s", "estimate_s"},
               "served_mix": {"jobs_per_s", "job_latency_p50_s", "job_latency_p90_s"}}
    assert set(untraced["also"]) == {"failed_share"} | partial.get(workload, set())
    assert untraced["also"]["failed_share"]["value"] == 0
    assert all(entry["value"] > 0 for name, entry in untraced["also"].items()
               if name != "failed_share")
    # every layer the workload passes through reported something
    layers = {name: entry["value"] for name, entry in traced["metrics"].items()}
    assert layers["api.compile_cold_s"] > 0 and layers["machine.charge_ns"] > 0
    assert (layers["service.overhead_s"] != 0) == (workload == "served_mix")
    assert (layers["hpf.parse_s"] > 0) == (workload in ("chain_plan_512", "compile_sweep"))


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_spans_nest(runs, workload):
    trace = json.loads((SUITE_DIR / runs[(workload, SEED, True)]["trace_file"]).read_text())
    recorded = trace["spans"]
    assert recorded, "the traced run recorded no span"
    by_id = {span["id"]: span for span in recorded}
    children = {}
    for span in recorded:
        assert NAME.fullmatch(span["name"].replace(":", "."))
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            children[span["parent"]] = children.get(span["parent"], 0.0) + spans.duration(span)
    own = spans.self_times(recorded)
    for span_id, covered in children.items():
        assert covered <= spans.duration(by_id[span_id]) + 1e-9
        assert own[span_id] >= -1e-9


def test_a_seed_changes_programs_and_order_and_nothing_else(runs):
    first, second = (build_plan("compile_sweep", seed, "full") for seed in (SEED, SEED + 1))
    assert first.points != second.points
    assert not {p.option("source") for p in first.points} & {
        p.option("source") for p in second.points}
    served = [build_plan("served_mix", seed, "full") for seed in (SEED, SEED + 1)]
    assert served[0].points == served[1].points
    assert served[0].job_order(0) != served[1].job_order(0)
    assert sorted(kind for kind, _ in served[0].job_order(0)) == sorted(
        kind for kind, _ in served[1].job_order(0))
    for workload in ("gaxpy_col_1k", "gaxpy_row_1k", "stream_rw_1k", "chain_plan_512"):
        assert build_plan(workload, SEED, "full").points == build_plan(
            workload, SEED + 1, "full").points
    # the same charged work under both seeds
    one, other = runs[("compile_sweep", SEED, False)], runs[("compile_sweep", SEED + 1, False)]
    for name in ("simulated_s", "charged_io_bytes_per_proc"):
        assert one["metrics"][name] == other["metrics"][name]


def test_a_charged_number_off_the_baseline_is_a_failed_check(runs):
    for scale in ("full", "tiny"):
        assert set(harness.BASELINE["charged"][scale]) == set(WORKLOADS)
    run = runs[("gaxpy_col_1k", SEED, False)]
    values = {name: entry["value"] for name, entry in run["metrics"].items()}
    assert harness.charged_drift("gaxpy_col_1k", "tiny", values) == []
    values["charged_io_bytes_per_proc"] += 1
    assert len(harness.charged_drift("gaxpy_col_1k", "tiny", values)) == 1


def test_a_failed_child_is_reported_with_its_stderr(tmp_path):
    with pytest.raises(harness.ChildFailed, match="unrecognized arguments: --no-such-flag"):
        harness.spawn("measure", "gaxpy_col_1k", SEED, 0.0, "tiny", tmp_path, "--no-such-flag")


def test_rejects_a_scale_it_does_not_run():
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "gaxpy_col_1k",
         "--scale", "half"], cwd=ROOT, capture_output=True, text=True, check=False)
    assert done.returncode == 2 and done.stdout == ""
    assert "invalid choice: 'half'" in done.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the command must fail
    without printing a result."""
    target = tmp_path / "benchmarks" / "suite"
    target.mkdir(parents=True)
    for source in [*SUITE_DIR.glob("*.py"), SUITE_DIR / "baseline.json"]:
        (target / source.name).write_bytes(source.read_bytes())
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "gaxpy_col_1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, check=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
