"""The metric tables: every name the suite prints, with unit and direction.

``BENCHMARK.json`` at the repository root repeats these tables (the smoke
test asserts they agree); ``README.md`` explains each name.  Every workload
emits every metric: an end-to-end metric is defined for all six (and is
never zero), a per-layer metric reads 0 on a workload that does not pass
through the layer.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

# name, unit, better, bound (share of the parent's median it may worsen by).
# The contract allows one bound per metric, shared by all six workloads, and
# wants every ten-seed spread below a third of it.  Timings: the reference
# box is a 2-vCPU guest whose speed flips between two modes every few
# seconds, and ten-seed spreads of 11-14 % were measured on the single-
# threaded GAXPY workloads with nothing else running, so their bound is the
# largest allowed.  Peak RSS spreads under 3 % on every workload.  The two
# charged numbers are computed, not timed: they repeat bit for bit and are
# also compared with ``baseline.json``, so their bound is the smallest that
# is not zero (one byte in a terabyte).  README, "Noise on the reference box".
EXACT = 1e-12
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("verified_run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("simulated_s", "sim_s", "lower", EXACT),
    ("charged_io_bytes_per_proc", "bytes", "lower", EXACT),
)

# name, unit, better
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("hpf.parse_s", "s", "lower"),
    ("hpf.lower_s", "s", "lower"),
    ("hpf.source_bytes", "bytes", "lower"),
    ("core.compile_even_s", "s", "lower"),
    ("core.schedule_s", "s", "lower"),
    ("core.node_ops", "count", "lower"),
    ("core.statements", "count", "lower"),
    ("planner.search_s", "s", "lower"),
    ("planner.search_checked_s", "s", "lower"),
    ("planner.replay_s", "s", "lower"),
    ("planner.candidates", "count", "lower"),
    ("planner.s_per_candidate", "s", "lower"),
    ("planner.predicted_gain_x", "x", "higher"),
    ("planner.cache_hits", "count", "higher"),
    ("planner.cache_misses", "count", "lower"),
    ("planner.rank_agrees", "count", "higher"),
    ("check.verify_s", "s", "lower"),
    ("check.findings", "count", "lower"),
    ("api.compile_cold_s", "s", "lower"),
    ("api.estimate_s", "s", "lower"),
    ("api.compile_warm_s", "s", "lower"),
    ("api.fresh_session_compile_s", "s", "lower"),
    ("api.generate_inputs_s", "s", "lower"),
    ("api.record_codec_s", "s", "lower"),
    ("api.compile_cache_hits", "count", "higher"),
    ("api.compile_cache_misses", "count", "lower"),
    ("api.run_overhead_s", "s", "lower"),
    ("runtime.execute_s", "s", "lower"),
    ("runtime.charge_only_s", "s", "lower"),
    ("runtime.data_plane_s", "s", "lower"),
    ("runtime.create_array_s", "s", "lower"),
    ("runtime.to_dense_s", "s", "lower"),
    ("runtime.cleanup_s", "s", "lower"),
    ("runtime.verify_s", "s", "lower"),
    ("runtime.incore_run_s", "s", "lower"),
    ("runtime.ooc_overhead_x", "x", "lower"),
    ("runtime.io.read_slab_s", "s", "lower"),
    ("runtime.io.write_slab_s", "s", "lower"),
    ("runtime.io.requests_per_proc", "count", "lower"),
    ("runtime.io.read_bytes_per_proc", "bytes", "lower"),
    ("runtime.io.write_bytes_per_proc", "bytes", "lower"),
    ("runtime.io.scratch_peak_bytes", "bytes", "lower"),
    ("runtime.comm.global_sum_s", "s", "lower"),
    ("runtime.comm.calls", "count", "lower"),
    ("machine.charge_ns", "ns", "lower"),
    ("resilience.checksum_s", "s", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.corruptions", "count", "lower"),
    ("service.direct_run_s", "s", "lower"),
    ("service.overhead_s", "s", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.metrics_s", "s", "lower"),
    ("service.job_latency_p90_s", "s", "lower"),
    ("service.jobs_per_s", "1/s", "higher"),
    ("service.worker_busy_share", "share", "higher"),
    ("service.rejected", "count", "lower"),
    ("service.failed_jobs", "count", "lower"),
    ("service.compile_cache_hit_rate", "share", "higher"),
    ("service.plan_cache_hit_rate", "share", "higher"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.coverage_share", "share", "higher"),
)

END_TO_END_UNITS: Dict[str, str] = {name: unit for name, unit, _, _ in END_TO_END}
PER_LAYER_UNITS: Dict[str, str] = {name: unit for name, unit, _ in PER_LAYER}


def end_to_end_table() -> List[Dict[str, object]]:
    """The ``end_to_end`` list of ``BENCHMARK.json``."""
    return [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in END_TO_END
    ]


def per_layer_table() -> List[Dict[str, object]]:
    """The ``per_layer`` list of ``BENCHMARK.json``."""
    return [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better in PER_LAYER
    ]


def with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, object]]:
    """``{name: {"value", "unit"}}`` for every name of ``units``; a name the
    workload did not measure reads 0 (it does not pass through that layer)."""
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
