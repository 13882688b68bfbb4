"""The traced run: one number per layer, measured from outside the program.

Three sources, in order of preference:

* **spans** — one traced pass with the boundary callables of
  :mod:`.spans` wrapped; a layer's number is the summed duration of its
  spans (``runtime.create_array_s``, ``hpf.parse_s``, ``planner.search_s`` …);
* **paired passes** — the same untraced pass with one switch flipped
  (verification, checksums, out-of-core vs in-core, EXECUTE vs charge-only);
* **replays** — a public function called the way the pass calls it, for the
  boundaries too hot to wrap (``IOEngine.read_slab``, ``global_sum``,
  ``Machine.charge_*``).

Every timing is the median of ``Plan.repeats`` repetitions (three; one at
the smoke scale).  A metric a workload does not pass through stays 0.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import RunRecord, Session, WorkloadPoint, get_workload
from repro.config import ExecutionMode, RunConfig
from repro.core.pipeline import CompiledWholeProgram, compile_program
from repro.core.node_program import LoopOp
from repro.machine.cluster import Machine
from repro.planner.search import plan_whole_program
from repro.resilience.reaper import scratch_usage_bytes
from repro.runtime.comm import SimulatedComm
from repro.runtime.executor import NodeProgramExecutor, ProgramExecutor
from repro.runtime.vm import VirtualMachine
from repro.service import ServiceClient

from . import OUT_DIR
from .measure import (
    READY,
    Checks,
    Served,
    direct_twins,
    execute_pass,
    job_problems,
    peak_rss_mb,
    warm_up,
)
from .spans import (
    BOUNDARIES,
    Recorder,
    instrument,
    outermost_total,
    self_time_by_name,
    total,
    write_trace,
)
from .workloads import Plan, build_plan

SERVICE_BOUNDARIES = BOUNDARIES + (
    ("repro.service.client", "ServiceClient", "submit", "service.submit"),
    ("repro.service.client", "ServiceClient", "wait", "service.wait"),
    ("repro.service.client", "ServiceClient", "records", "service.records"),
)


def median_seconds(function: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def statements_of(compiled) -> Sequence[object]:
    """The per-statement ``CompiledProgram`` units of a compiled workload."""
    program = compiled.program
    return program.statements if isinstance(program, CompiledWholeProgram) else (program,)


# ---------------------------------------------------------------------------
# compile side: hpf, core, planner, check, api
# ---------------------------------------------------------------------------
def lower(point: WorkloadPoint, params) -> Tuple[object, Dict[str, object]]:
    """The point's IR and the slab specification its workload lowers it with."""
    lowering = get_workload(point.workload).build_ir(point, params)
    spec = {
        key: value
        for key, value in (
            ("slab_ratio", lowering.slab_ratio),
            ("slab_elements", lowering.slab_elements),
            ("memory_budget_bytes", lowering.memory_budget_bytes),
            ("force_strategy", lowering.force_strategy),
        )
        if value is not None
    }
    return lowering.ir, spec


def count_node_ops(ops: Sequence[object]) -> int:
    return sum(1 + (count_node_ops(op.body) if isinstance(op, LoopOp) else 0) for op in ops)


def compile_layers(plan: Plan, session: Session, recorder: Recorder,
                   layers: Dict[str, float]) -> List[object]:
    """Cold-compile the plan's points under spans, then probe the compiler."""
    before = len(recorder.spans)
    with instrument(recorder):
        with recorder.span("pass:compile", op="compile"):
            compiled = [session.compile(point) for point in plan.points]
    spans = recorder.spans[before:]
    layers["api.compile_cold_s"] = outermost_total(spans, "api.compile")
    layers["hpf.parse_s"] = total(spans, "hpf.parse")
    layers["hpf.lower_s"] = total(spans, "hpf.lower")
    layers["planner.search_s"] = outermost_total(spans, "planner.search")
    layers["core.schedule_s"] = total(spans, "core.schedule")
    layers["check.verify_s"] = total(spans, "check.verify")
    layers["hpf.source_bytes"] = sum(
        len(str(point.option("source", "")).encode()) for point in plan.points)

    params = session.params
    lowered = [lower(point, params) for point in plan.points]
    layers["core.compile_even_s"] = median_seconds(lambda: [
        compile_program(ir, params, optimizer="none", check="off", **spec)
        for ir, spec in lowered], plan.repeats)
    layers["core.node_ops"] = sum(
        count_node_ops(unit.node_program.ops) for c in compiled for unit in statements_of(c))
    layers["core.statements"] = sum(len(c.program.program.statements) for c in compiled)
    layers["check.findings"] = sum(len(c.check.findings) for c in compiled if c.check)

    searched = [(point, ir, spec) for point, (ir, spec) in zip(plan.points, lowered, strict=True)
                if "memory_budget_bytes" in spec and point.optimize not in (None, "none")]
    if searched:
        def search(check: str, cache) -> None:
            for point, ir, spec in searched:
                plan_whole_program(
                    ir, params, spec["memory_budget_bytes"], optimizer=point.optimize,
                    fusion=str(point.option("fusion", "off")), plan_cache=cache, check=check)

        layers["planner.search_checked_s"] = median_seconds(
            lambda: search("warn", None), plan.repeats)
        # The cold compile stored every winner in the session's plan cache.
        layers["planner.replay_s"] = median_seconds(
            lambda: search("off", session.plan_cache), plan.repeats)
        decisions = [c.program.planner for c in compiled if c.program.planner is not None
                     and c.program.planner.optimizer != "none"]
        layers["planner.candidates"] = sum(d.candidates_evaluated for d in decisions)
        layers["planner.s_per_candidate"] = (
            layers["planner.search_s"] / layers["planner.candidates"])
        layers["planner.predicted_gain_x"] = math.exp(
            statistics.fmean(math.log(d.improvement) for d in decisions))

    first = plan.points[0]
    start = time.perf_counter()
    for _ in range(1000):
        session.compile(first)
    layers["api.compile_warm_s"] = (time.perf_counter() - start) / 1000

    def fresh_session() -> None:
        with Session(config=session.config, reap_max_age_s=None) as other:
            for point in plan.points:
                other.compile(point)

    layers["api.fresh_session_compile_s"] = median_seconds(fresh_session, plan.repeats)
    layers["api.estimate_s"] = median_seconds(
        lambda: [session.run(c, "estimate") for c in compiled], plan.repeats)
    info = session.cache_info()
    layers["api.compile_cache_hits"] = info["hits"]
    layers["api.compile_cache_misses"] = info["misses"]
    layers["planner.cache_hits"] = info["planner_hits"]
    layers["planner.cache_misses"] = info["planner_misses"]
    return compiled


# ---------------------------------------------------------------------------
# run side: api, runtime, machine, resilience
# ---------------------------------------------------------------------------
def charge_only(compiled: Sequence[object]) -> None:
    """Drive every plan's slab loops on an ESTIMATE-mode VM: no files, no
    arithmetic, only the charge accounting."""
    for c in compiled:
        vm = VirtualMachine(c.nprocs, c.params, RunConfig(mode=ExecutionMode.ESTIMATE))
        executor = (ProgramExecutor if isinstance(c.program, CompiledWholeProgram)
                    else NodeProgramExecutor)(c.program)
        executor.run(vm, None, verify=False)


def machine_charge_ns(params) -> float:
    """Median ns per ``Machine.charge_*`` call, over batches of 1000."""
    machine = Machine(4, params)
    calls = (
        lambda: machine.charge_read(1, 4096, 1),
        lambda: machine.charge_compute(1, 2048.0),
        lambda: machine.charge_global_sum(4096, 1024),
    )
    batches = []
    for call in calls:
        for _ in range(9):
            start = time.perf_counter_ns()
            for _ in range(1000):
                call()
            batches.append((time.perf_counter_ns() - start) / 1000)
    return statistics.median(batches)


def replay_slab_io(compiled, scratch: Path, plan: Plan) -> Tuple[float, float]:
    """One sweep over the slab list of the first plan's first array through
    ``IOEngine.read_slab`` then ``write_slab``, on a scratch VM."""
    unit = statements_of(compiled)[0]
    name = next(iter(unit.plan.allocation))
    descriptor = unit.program.arrays[name]
    order = "F" if unit.plan.strategy.value == "column" else "C"
    config = RunConfig(scratch_dir=scratch / "replay", seed=plan.seed)
    dense = np.random.default_rng(plan.seed).standard_normal(descriptor.shape).astype(
        descriptor.dtype)
    with VirtualMachine(unit.nprocs, unit.params, config) as vm:
        array = vm.create_array(descriptor, initial=dense, storage_order=order)
        work = [(rank, ocla, slab) for rank, ocla in array.locals.items()
                for slab in ocla.slabs(unit.plan.strategy, unit.plan.allocation[name])]
        held: List[np.ndarray] = []

        def read() -> None:
            held[:] = [vm.engine.read_slab(rank, ocla.laf, slab) for rank, ocla, slab in work]

        def write() -> None:
            for (rank, ocla, slab), data in zip(work, held, strict=True):
                vm.engine.write_slab(rank, ocla.laf, slab, data)

        return median_seconds(read, plan.repeats), median_seconds(write, plan.repeats)


def replay_global_sums(compiled: Sequence[object]) -> Tuple[float, int]:
    """The pass's global sums replayed through ``SimulatedComm`` at their
    payload; counts beyond 2000 are timed on 2000 calls and scaled."""
    seconds, calls = 0.0, 0
    for c in compiled:
        for unit in statements_of(c):
            totals = unit.node_program.operation_totals()
            count = int(totals.get("global_sums", 0))
            if not count:
                continue
            elements = int(totals["global_sum_elements"] / count)
            comm = SimulatedComm()
            comm.bind(Machine(unit.nprocs, unit.params))
            parts = {rank: np.ones(elements) for rank in range(unit.nprocs)}
            timed = min(count, 2000)
            start = time.perf_counter()
            for _ in range(timed):
                comm.global_sum(parts, shape=(elements,), itemsize=4)
            seconds += (time.perf_counter() - start) * count / timed
            calls += count
    return seconds, calls


def run_layers(plan: Plan, session: Session, compiled: Sequence[object], scratch: Path,
               recorder: Recorder, checks: Checks, layers: Dict[str, float]) -> List[float]:
    """One EXECUTE pass of ``compiled`` taken apart; returns the host seconds
    of each point run on its own."""

    def plain(verify: Optional[bool], on: Session = session) -> Tuple[float, List[RunRecord]]:
        samples, records = [], []
        for _ in range(plan.repeats):
            elapsed, records = execute_pass(on, compiled, verify)
            checks.operation(checks.pass_problems(records, verify))
            samples.append(elapsed)
        return statistics.median(samples), records

    warm_up(session, compiled)
    # Untraced and traced passes alternate, so their difference (the tracing
    # overhead) is not a difference between two moments of the machine; the
    # layer numbers come from the spans of the traced pass of median duration.
    plain_samples, traced, records = [], [], []
    for index in range(plan.repeats):
        elapsed, records = execute_pass(session, compiled, False)
        checks.operation(checks.pass_problems(records, False))
        plain_samples.append(elapsed)
        with instrument(recorder):
            before = len(recorder.spans)
            with recorder.span("pass:run", op=f"run-{index}"):
                elapsed, _ = execute_pass(session, compiled, False)
            traced.append((elapsed, before, len(recorder.spans)))
    plain_s = statistics.median(plain_samples)
    verified_s, _ = plain(None)
    layers["runtime.verify_s"] = verified_s - plain_s
    with instrument(recorder):
        before = len(recorder.spans)
        with recorder.span("pass:verified-run", op="verified-run"):
            execute_pass(session, compiled, None)
        verified_spans = recorder.spans[before:]
    traced_s, first, last = sorted(traced)[len(traced) // 2]
    spans = recorder.spans[first:last]
    own = self_time_by_name(spans)
    layers["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    layers["trace.coverage_share"] = 1.0 - own["api.run"] / total(spans, "api.run")
    layers["api.run_overhead_s"] = own["api.run"]
    layers["api.generate_inputs_s"] = total(spans, "api.generate_inputs")
    layers["runtime.execute_s"] = outermost_total(spans, "runtime.execute")
    layers["runtime.create_array_s"] = total(spans, "runtime.create_array")
    layers["runtime.cleanup_s"] = total(spans, "runtime.cleanup")
    layers["runtime.to_dense_s"] = total(verified_spans, "runtime.to_dense")

    layers["runtime.charge_only_s"] = median_seconds(
        lambda: charge_only(compiled), plan.repeats)
    layers["runtime.data_plane_s"] = layers["runtime.execute_s"] - layers["runtime.charge_only_s"]
    layers["machine.charge_ns"] = machine_charge_ns(session.params)

    layers["runtime.io.requests_per_proc"] = sum(r.io_requests_per_proc for r in records)
    layers["runtime.io.read_bytes_per_proc"] = sum(r.io_read_bytes_per_proc for r in records)
    layers["runtime.io.write_bytes_per_proc"] = sum(r.io_write_bytes_per_proc for r in records)
    layers["resilience.retries"] = sum(r.resilience.get("retries", 0) for r in records)
    layers["resilience.corruptions"] = sum(
        r.resilience.get("corruptions_detected", 0) for r in records)
    read_s, write_s = replay_slab_io(compiled[0], scratch, plan)
    layers["runtime.io.read_slab_s"] = read_s
    layers["runtime.io.write_slab_s"] = write_s
    layers["runtime.comm.global_sum_s"], layers["runtime.comm.calls"] = (
        replay_global_sums(compiled))

    kept = RunConfig(scratch_dir=scratch / "kept", seed=plan.seed, keep_files=True)
    with Session(config=kept, reap_max_age_s=None) as keeper:
        execute_pass(keeper, compiled, False)
        layers["runtime.io.scratch_peak_bytes"] = scratch_usage_bytes(kept.scratch_dir)

    unchecked = RunConfig(scratch_dir=scratch / "nosums", seed=plan.seed, checksums=False)
    with Session(config=unchecked, reap_max_age_s=None) as bare:
        warm_up(bare, compiled)
        layers["resilience.checksum_s"] = plain_s - plain(False, bare)[0]

    if plan.incore is not None:
        incore = [session.compile(plan.incore)]
        warm_up(session, incore)
        layers["runtime.incore_run_s"] = median_seconds(
            lambda: execute_pass(session, incore, False), plan.repeats)
        layers["runtime.ooc_overhead_x"] = plain_s / layers["runtime.incore_run_s"]

    layers["api.record_codec_s"] = median_seconds(
        lambda: [RunRecord.from_json_dict(json.loads(json.dumps(r.to_json_dict())))
                 for r in records], 33 * plan.repeats)

    point_s = [median_seconds(lambda c=c: execute_pass(session, [c], False), plan.repeats)
               for c in compiled]
    if plan.name == "chain_plan_512":
        # Does the plan the cost model prefers also win on the host clock?
        predicted = [c.program.cost.total_time for c in compiled]
        layers["planner.rank_agrees"] = float(
            (predicted[1] < predicted[0]) == (point_s[1] < point_s[0]))
    return point_s


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------
def service_layers(plan: Plan, scratch: Path, recorder: Recorder, checks: Checks,
                   layers: Dict[str, float], direct_s: Sequence[float]) -> None:
    """``direct_s``: what each job kind costs as a plain, warm ``Session.run``."""
    twins = direct_twins(plan, scratch, False)
    layers["service.direct_run_s"] = statistics.median(direct_s)
    served = Served(plan, scratch)
    try:
        served.warm_up()
        jobs: List[Dict[str, object]] = []
        untraced_wall = 0.0
        for index in range(4):
            block_wall, block_jobs = served.block(index, False)
            untraced_wall += block_wall
            jobs += block_jobs
        before = len(recorder.spans)
        with instrument(recorder, SERVICE_BOUNDARIES):
            wall, traced_jobs = served.block(4, False)
        client = ServiceClient(port=served.handle.port)
        layers["service.metrics_s"] = median_seconds(client.metrics, 7 * plan.repeats)
        metrics = client.metrics()
    finally:
        served.close()
    for job in jobs + traced_jobs:
        checks.operation(job_problems(job, twins))
    latencies = sorted(float(job["latency_s"]) for job in jobs)
    layers["service.job_latency_p90_s"] = latencies[int(0.9 * len(latencies))]
    layers["service.jobs_per_s"] = len(jobs) / untraced_wall
    layers["service.overhead_s"] = statistics.median(
        float(job["latency_s"]) - direct_s[int(job["kind"])] for job in jobs)
    layers["service.submit_s"] = statistics.median(float(job["submit_s"]) for job in jobs)
    spans = recorder.spans[before:]
    busy = total(spans, "api.run") + outermost_total(spans, "api.compile")
    layers["service.worker_busy_share"] = busy / (metrics["workers"] * wall)
    layers["service.rejected"] = metrics["admission"]["rejections"]
    layers["service.failed_jobs"] = metrics["jobs"]["failed"]
    layers["service.compile_cache_hit_rate"] = metrics["compile_cache"]["hit_rate"]
    layers["service.plan_cache_hit_rate"] = metrics["plan_cache"]["hit_rate"]


# ---------------------------------------------------------------------------
def layer_table(plan: Plan, scratch: Path, recorder: Recorder, checks: Checks) -> Dict[str, float]:
    """Every per-layer number of one workload at the plan's scale."""
    layers: Dict[str, float] = {}
    point_s: List[float] = []
    config = RunConfig(scratch_dir=scratch / "main", seed=plan.seed)
    with Session(config=config, reap_max_age_s=None) as session:
        compiled = compile_layers(plan, session, recorder, layers)
        if plan.kind == "sweep":
            # Tracing overhead on a compile: the same programs under other
            # identifiers (so nothing is cached), compiled without spans.
            other = build_plan(plan.name, plan.seed + 1, plan.scale)
            with Session(config=config, reap_max_age_s=None) as untraced:
                plain_s = median_seconds(
                    lambda: [untraced.compile(point) for point in other.points], 1)
            spans = [s for s in recorder.spans if s["op"] == "compile"]
            own = self_time_by_name(spans)
            layers["trace.overhead_share"] = (
                layers["api.compile_cold_s"] - plain_s) / plain_s
            layers["trace.coverage_share"] = (
                1.0 - own["api.compile"] / total(spans, "api.compile"))
            layers["runtime.charge_only_s"] = median_seconds(
                lambda: charge_only(compiled), plan.repeats)
            layers["machine.charge_ns"] = machine_charge_ns(session.params)
            for record in (session.run(c, "estimate") for c in compiled):
                checks.operation([record.error] if record.error else [])
        else:
            point_s = run_layers(plan, session, compiled, scratch, recorder, checks, layers)
    if plan.kind == "served":
        service_layers(plan, scratch, recorder, checks, layers, point_s)
    return layers


def child_main(workload: str, seed: int, seconds: float, scale: str, scratch: Path) -> int:
    """The traced child: per-layer metrics on stdout, spans in ``out/``."""
    del seconds  # the traced run does a fixed amount of work
    plan = build_plan(workload, seed, scale)
    print(READY, flush=True)
    recorder, checks = Recorder(), Checks()
    layers = layer_table(plan, scratch, recorder, checks)
    half: Dict[str, float] = {}
    if plan.kind == "execute" and scale == "full":
        # Scale probe: the same table at half N shows which layer grows.
        half = layer_table(build_plan(workload, seed, "half"), scratch, Recorder(), Checks())
    suffix = "" if scale == "full" else f"-{scale}"
    trace_file = OUT_DIR / f"trace-{workload}{suffix}.json"
    write_trace(trace_file, {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "layers": layers,
        "layers_half_n": half,
        "self_time_by_name": self_time_by_name(recorder.spans),
        "spans": recorder.spans,
        "peak_rss_mb": peak_rss_mb(),
    })
    report = checks.report()
    print(json.dumps({
        "layers": layers,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "failures": report["failures"],
        "trace_file": str(trace_file.relative_to(OUT_DIR.parent)),
    }), flush=True)
    return 0
