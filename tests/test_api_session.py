"""Tests for the unified Workload/Session API (:mod:`repro.api`)."""

import dataclasses

import pytest

import repro
from repro.api import (
    CompiledWorkload,
    Session,
    Workload,
    WorkloadPoint,
    available_workloads,
    get_workload,
    register_workload,
    unregister_workload,
)
from repro.config import ExecutionMode, RunConfig
from repro.exceptions import WorkloadError

GAXPY_SOURCE = """
program gaxpy
  parameter (n = 64, nprocs = 4)
  real a(n, n), b(n, n), c(n, n)
!hpf$ processors Pr(nprocs)
!hpf$ template d(n)
!hpf$ distribute d(block) onto Pr
!hpf$ align a(*, :) with d
!hpf$ align c(*, :) with d
!hpf$ align b(:, *) with d
  do j = 1, n
    forall (k = 1 : n)
      c(:, j) = sum(a(:, k) * b(k, j))
    end forall
  end do
end program
"""


def make_session(tmp_path, **kwargs):
    return Session(config=RunConfig(scratch_dir=tmp_path), **kwargs)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        assert {"gaxpy", "transpose", "elementwise", "hpf"} <= set(available_workloads())

    def test_round_trip(self):
        for name in available_workloads():
            workload = get_workload(name)
            assert isinstance(workload, Workload)
            assert workload.name == name

    def test_unknown_workload_rejected(self):
        with pytest.raises(WorkloadError, match="unknown workload"):
            get_workload("fft")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(WorkloadError, match="already registered"):

            @register_workload("gaxpy")
            class Duplicate(Workload):  # pragma: no cover - never instantiated twice
                def compile(self, point, params):
                    raise NotImplementedError

                def estimate(self, compiled, vm):
                    raise NotImplementedError

                def execute(self, compiled, vm, verify):
                    raise NotImplementedError

    def test_register_and_unregister_custom_workload(self):
        class Noop(Workload):
            versions = ("",)

            def compile(self, point, params):
                return CompiledWorkload(workload=self, point=point, params=params)

            def estimate(self, compiled, vm):
                raise NotImplementedError

            def execute(self, compiled, vm, verify):
                raise NotImplementedError

        register_workload("noop-test")(Noop)
        try:
            assert "noop-test" in available_workloads()
            assert get_workload("noop-test").name == "noop-test"
        finally:
            unregister_workload("noop-test")
        assert "noop-test" not in available_workloads()

    def test_non_workload_class_rejected(self):
        with pytest.raises(WorkloadError, match="Workload subclass"):
            register_workload("bogus")(dict)


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------
class TestWorkloadPoint:
    def test_points_are_hashable_and_mapping_order_insensitive(self):
        a = WorkloadPoint("gaxpy", n=64, nprocs=4, version="row",
                          slab_elements={"a": 16, "b": 32})
        b = WorkloadPoint("gaxpy", n=64, nprocs=4, version="row",
                          slab_elements={"b": 32, "a": 16})
        assert a == b and hash(a) == hash(b)
        assert a.slab_elements_dict() == {"a": 16, "b": 32}

    def test_validation(self):
        with pytest.raises(WorkloadError):
            WorkloadPoint("")
        with pytest.raises(WorkloadError):
            WorkloadPoint("gaxpy", n=64, nprocs=0)

    def test_unhashable_option_values_rejected_with_clear_error(self):
        with pytest.raises(WorkloadError, match="unhashable"):
            WorkloadPoint("gaxpy", n=64, nprocs=4, options={"weights": [1, 2, 3]})
        # hashable equivalents are fine
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, version="row", slab_ratio=0.5,
                              options={"weights": (1, 2, 3)})
        assert hash(point)

    def test_workload_specific_validation(self):
        session = Session()
        with pytest.raises(WorkloadError, match="slab_ratio or slab_elements"):
            session.compile(WorkloadPoint("gaxpy", n=64, nprocs=4, version="row"))
        with pytest.raises(WorkloadError, match="no version"):
            session.compile(WorkloadPoint("gaxpy", n=64, nprocs=4, version="diagonal",
                                          slab_ratio=0.5))
        with pytest.raises(WorkloadError, match="source"):
            session.compile(WorkloadPoint("hpf", slab_ratio=0.5))
        with pytest.raises(WorkloadError, match="elementwise op"):
            session.compile(WorkloadPoint("elementwise", n=32, nprocs=4,
                                          options={"op": "divide"}))

    def test_label_mentions_workload_and_version(self):
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, version="row", slab_ratio=0.5)
        assert "gaxpy" in point.label() and "row" in point.label()


# ---------------------------------------------------------------------------
# session: compile cache
# ---------------------------------------------------------------------------
class TestCompileCache:
    def test_cache_hit_returns_same_object(self):
        session = Session()
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, version="row", slab_ratio=0.5)
        one = session.compile(point)
        two = session.compile(WorkloadPoint("gaxpy", n=64, nprocs=4, version="row",
                                            slab_ratio=0.5))
        assert one is two
        info = session.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_cache_eviction_is_lru(self):
        session = Session(compile_cache_size=1)
        a = WorkloadPoint("gaxpy", n=32, nprocs=2, version="row", slab_ratio=0.5)
        b = WorkloadPoint("gaxpy", n=64, nprocs=2, version="row", slab_ratio=0.5)
        session.compile(a)
        session.compile(b)
        session.compile(a)
        assert session.cache_info()["size"] == 1
        assert session.cache_info()["hits"] == 0

    def test_compiled_program_is_frozen(self):
        compiled = Session().compile(
            WorkloadPoint("gaxpy", n=64, nprocs=4, version="row", slab_ratio=0.5)
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            compiled.program.nprocs = 99
        with pytest.raises(dataclasses.FrozenInstanceError):
            compiled.program.plan = None

    def test_cache_hits_are_not_mutated_by_executors(self, tmp_path):
        """Running a cached program twice must leave it unchanged."""
        session = make_session(tmp_path)
        point = WorkloadPoint("gaxpy", n=32, nprocs=2, version="row", slab_ratio=0.5)
        compiled = session.compile(point)
        before = (compiled.program.plan, compiled.program.node_program,
                  compiled.program.analysis)
        first = session.run(point, mode=ExecutionMode.EXECUTE)
        second = session.run(point, mode=ExecutionMode.EXECUTE)
        assert session.compile(point) is compiled
        assert (compiled.program.plan, compiled.program.node_program,
                compiled.program.analysis) == before
        assert first == second


# ---------------------------------------------------------------------------
# session: single runs per workload
# ---------------------------------------------------------------------------
class TestSessionRun:
    @pytest.mark.parametrize("workload,kwargs", [
        ("transpose", {}),
        ("elementwise", {"version": "column"}),
        ("elementwise", {"version": "row", "options": {"op": "multiply"}}),
    ])
    def test_execute_verifies_against_dense_reference(self, tmp_path, workload, kwargs):
        point = WorkloadPoint(workload, n=32, nprocs=4, **kwargs)
        record = make_session(tmp_path).run(point, mode=ExecutionMode.EXECUTE)
        assert record.verified is True
        assert record.mode == "execute"
        assert record.simulated_seconds > 0
        assert record.io_requests_per_proc > 0

    @pytest.mark.parametrize("workload", ["gaxpy", "transpose", "elementwise"])
    def test_estimate_mode(self, tmp_path, workload):
        kwargs = {"version": "row", "slab_ratio": 0.5} if workload == "gaxpy" else {}
        point = WorkloadPoint(workload, n=32, nprocs=4, **kwargs)
        record = make_session(tmp_path).run(point, mode=ExecutionMode.ESTIMATE)
        assert record.mode == "estimate"
        assert record.verified is None
        assert record.simulated_seconds > 0

    def test_estimate_and_execute_agree_on_io_for_descriptor_kernels(self, tmp_path):
        """The ESTIMATE path charges the same I/O the EXECUTE path performs."""
        session = make_session(tmp_path)
        for workload in ("transpose", "elementwise"):
            point = WorkloadPoint(workload, n=32, nprocs=4)
            estimate = session.run(point, mode=ExecutionMode.ESTIMATE)
            execute = session.run(point, mode=ExecutionMode.EXECUTE)
            assert estimate.io_requests_per_proc == execute.io_requests_per_proc
            assert estimate.io_bytes_per_proc == execute.io_bytes_per_proc

    def test_verify_false_skips_verification(self, tmp_path):
        point = WorkloadPoint("gaxpy", n=32, nprocs=2, version="row", slab_ratio=0.5)
        record = make_session(tmp_path).run(point, mode=ExecutionMode.EXECUTE, verify=False)
        assert record.verified is None

    def test_default_version_lets_the_compiler_choose(self, tmp_path):
        """version "" compiles without a forced strategy and reports the choice."""
        session = make_session(tmp_path)
        point = WorkloadPoint("gaxpy", n=48, nprocs=4, slab_ratio=0.5)
        compiled = session.compile(point)
        chosen = compiled.program.plan.strategy.value
        assert compiled.program.decision is not None  # the cost model really chose
        for mode in (ExecutionMode.ESTIMATE, ExecutionMode.EXECUTE):
            record = session.run(point, mode=mode)
            assert record.version == chosen
        assert session.run(point, mode=ExecutionMode.EXECUTE).verified is True

    def test_transpose_and_elementwise_honor_slab_ratio(self, tmp_path):
        """A slab_ratio on descriptor-backed points must change the I/O pattern."""
        session = make_session(tmp_path)
        for workload in ("transpose", "elementwise"):
            coarse = session.run(WorkloadPoint(workload, n=32, nprocs=4, slab_ratio=1.0),
                                 mode=ExecutionMode.ESTIMATE)
            fine = session.run(WorkloadPoint(workload, n=32, nprocs=4, slab_ratio=0.125),
                               mode=ExecutionMode.ESTIMATE)
            assert fine.io_requests_per_proc > coarse.io_requests_per_proc, workload

    def test_slab_ratio_one_means_one_slab_even_for_uneven_n(self, tmp_path):
        """Ratio sizing must use the real ceil-based local shapes (n=10, p=4)."""
        session = make_session(tmp_path)
        record = session.run(WorkloadPoint("transpose", n=10, nprocs=4, slab_ratio=1.0),
                             mode=ExecutionMode.ESTIMATE)
        # one read per source column-slab + one write per target slab = 2
        assert record.io_requests_per_proc == 2
        record = session.run(WorkloadPoint("elementwise", n=10, nprocs=4, slab_ratio=1.0),
                             mode=ExecutionMode.ESTIMATE)
        # a, b read in one slab each + c written in one slab = 3
        assert record.io_requests_per_proc == 3

    def test_descriptor_kernels_reject_ambiguous_slab_specs(self):
        session = Session()
        with pytest.raises(WorkloadError, match="not a per-array"):
            session.compile(WorkloadPoint("transpose", n=32, nprocs=4,
                                          slab_elements={"t": 64}))
        with pytest.raises(WorkloadError, match="not both"):
            session.compile(WorkloadPoint("transpose", n=32, nprocs=4, slab_ratio=0.5,
                                          options={"cols_per_slab": 4}))
        with pytest.raises(WorkloadError, match="option"):
            session.compile(WorkloadPoint("elementwise", n=32, nprocs=4,
                                          slab_elements={"e": 64}))
        with pytest.raises(WorkloadError, match="not both"):
            session.compile(WorkloadPoint("elementwise", n=32, nprocs=4, slab_ratio=0.5,
                                          options={"slab_elements": 64}))

    def test_incore_version(self, tmp_path):
        point = WorkloadPoint("gaxpy", n=32, nprocs=2, version="incore")
        session = make_session(tmp_path)
        assert session.run(point, mode=ExecutionMode.ESTIMATE).simulated_seconds > 0
        assert session.run(point, mode=ExecutionMode.EXECUTE).verified is True


# ---------------------------------------------------------------------------
# session: HPF source frontend
# ---------------------------------------------------------------------------
class TestHpfWorkload:
    def test_compile_resolves_sizes_from_source(self):
        compiled = Session().compile(source=GAXPY_SOURCE, slab_ratio=0.25)
        assert compiled.point.workload == "hpf"
        assert compiled.n == 64 and compiled.nprocs == 4
        assert compiled.program is not None

    def test_run_both_modes(self, tmp_path):
        session = make_session(tmp_path)
        compiled = session.compile(source=GAXPY_SOURCE, slab_ratio=0.25)
        estimate = session.run(compiled, mode=ExecutionMode.ESTIMATE)
        assert estimate.simulated_seconds > 0 and estimate.verified is None
        execute = session.run(compiled, mode=ExecutionMode.EXECUTE)
        assert execute.verified is True

    def test_sweepable_via_point(self, tmp_path):
        point = WorkloadPoint("hpf", slab_ratio=0.5, options={"source": GAXPY_SOURCE})
        records = make_session(tmp_path).sweep([point], mode=ExecutionMode.ESTIMATE)
        assert records[0].n == 64 and records[0].nprocs == 4
        assert records[0].version in ("column", "row")

    def test_single_operand_program_runs_in_both_modes(self, tmp_path):
        """c = a @ a: ESTIMATE works and EXECUTE verifies against the dense square."""
        source = GAXPY_SOURCE.replace("real a(n, n), b(n, n), c(n, n)",
                                      "real a(n, n), c(n, n)")
        source = source.replace("!hpf$ align b(:, *) with d\n", "")
        source = source.replace("sum(a(:, k) * b(k, j))", "sum(a(:, k) * a(k, j))")
        session = make_session(tmp_path)
        compiled = session.compile(source=source, slab_ratio=0.5)
        assert compiled.program.analysis.streamed == compiled.program.analysis.coefficient
        estimate = session.run(compiled, mode=ExecutionMode.ESTIMATE)
        assert estimate.simulated_seconds > 0
        execute = session.run(compiled, mode=ExecutionMode.EXECUTE)
        assert execute.verified is True
        assert execute.simulated_seconds > 0
        assert execute.io_requests_per_proc > 0

    def test_requires_exactly_one_slab_spec(self):
        session = Session()
        with pytest.raises(WorkloadError, match="exactly one"):
            session.compile(WorkloadPoint("hpf", options={"source": GAXPY_SOURCE}))
        with pytest.raises(WorkloadError, match="exactly one"):
            session.compile(WorkloadPoint("hpf", slab_ratio=0.5,
                                          slab_elements={"a": 16, "b": 16},
                                          options={"source": GAXPY_SOURCE}))


# ---------------------------------------------------------------------------
# session: mixed sweeps (the acceptance criterion)
# ---------------------------------------------------------------------------
def _mixed_points():
    return [
        WorkloadPoint("gaxpy", n=32, nprocs=2, version="column", slab_ratio=0.5),
        WorkloadPoint("gaxpy", n=32, nprocs=2, version="row", slab_ratio=0.5),
        WorkloadPoint("gaxpy", n=32, nprocs=2, version="incore"),
        WorkloadPoint("transpose", n=32, nprocs=4),
        WorkloadPoint("elementwise", n=32, nprocs=4, version="row"),
        WorkloadPoint("elementwise", n=32, nprocs=2,
                      options={"op": "multiply", "slab_elements": 64}),
    ]


class TestMixedSweep:
    @pytest.mark.parametrize("mode", [ExecutionMode.ESTIMATE, ExecutionMode.EXECUTE])
    def test_parallel_records_identical_to_sequential(self, tmp_path, mode):
        session = make_session(tmp_path)
        sequential = session.sweep(_mixed_points(), mode=mode, workers=1)
        parallel = session.sweep(_mixed_points(), mode=mode, workers=4)
        assert len(sequential) == len(parallel) == len(_mixed_points())
        for seq, par in zip(sequential, parallel, strict=True):
            assert seq == par  # RunRecord is a dataclass: per-field equality
        workloads = [r.workload for r in sequential]
        assert workloads == [p.workload for p in _mixed_points()]
        if mode is ExecutionMode.EXECUTE:
            assert all(r.verified is True for r in sequential)
        else:
            assert all(r.verified is None for r in sequential)

    def test_sweep_forwards_verify_flag(self, tmp_path):
        """``verify=False`` reaches every point, on the thread-pool path too."""
        session = make_session(tmp_path)
        records = session.sweep(_mixed_points(), mode=ExecutionMode.EXECUTE,
                                workers=4, verify=False)
        assert all(r.verified is None for r in records)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------
class TestRunRecord:
    def test_to_dict_keeps_types(self, tmp_path):
        point = WorkloadPoint("gaxpy", n=32, nprocs=2, version="row", slab_ratio=0.5)
        record = make_session(tmp_path).run(point, mode=ExecutionMode.EXECUTE)
        flat = record.to_dict()
        assert isinstance(flat["version"], str) and flat["version"] == "row"
        assert isinstance(flat["workload"], str)
        assert isinstance(flat["n"], int) and flat["n"] == 32
        assert isinstance(flat["time"], float)
        assert flat["verified"] is True
        assert flat["io_bytes_per_proc"] == (
            flat["io_read_bytes_per_proc"] + flat["io_write_bytes_per_proc"]
        )

    def test_describe_mentions_verification(self, tmp_path):
        point = WorkloadPoint("elementwise", n=32, nprocs=4)
        record = make_session(tmp_path).run(point, mode=ExecutionMode.EXECUTE)
        assert "verified: True" in record.describe()

    def test_records_are_frozen(self, tmp_path):
        record = make_session(tmp_path).run(
            WorkloadPoint("gaxpy", n=32, nprocs=2, version="incore"),
            mode=ExecutionMode.ESTIMATE,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.simulated_seconds = 0.0


# ---------------------------------------------------------------------------
# session lifecycle: close() and the context-manager protocol
# ---------------------------------------------------------------------------
class TestSessionClose:
    def test_context_manager_closes(self, tmp_path):
        with make_session(tmp_path) as session:
            session.run(WorkloadPoint("gaxpy", n=32, nprocs=2, slab_ratio=0.5),
                        mode="estimate")
        assert session.closed is True

    def test_closed_session_rejects_work(self, tmp_path):
        session = make_session(tmp_path)
        session.close()
        point = WorkloadPoint("gaxpy", n=32, nprocs=2, slab_ratio=0.5)
        with pytest.raises(WorkloadError, match="closed"):
            session.compile(point)
        with pytest.raises(WorkloadError, match="closed"):
            session.run(point)
        with pytest.raises(WorkloadError, match="closed"):
            with session:
                pass

    def test_close_is_idempotent(self, tmp_path):
        session = make_session(tmp_path)
        session.close()
        session.close()
        assert session.closed is True

    def test_close_reclaims_kept_scratch(self, tmp_path):
        # keep_files=True leaves each run's vm_* scratch on disk; close()
        # sweeps what this session created.
        session = Session(config=RunConfig(scratch_dir=tmp_path, keep_files=True))
        session.run(WorkloadPoint("gaxpy", n=32, nprocs=2, slab_ratio=0.5),
                    mode="execute")
        leftovers = list(tmp_path.glob("vm_*"))
        assert leftovers, "keep_files=True should have kept the scratch dir"
        session.close()
        assert list(tmp_path.glob("vm_*")) == []

    def test_close_flushes_plan_cache_and_clears_compile_cache(self, tmp_path):
        session = Session(
            config=RunConfig(scratch_dir=tmp_path / "scratch"),
            plan_cache_dir=tmp_path / "plans",
        )
        source = """
        program square
          parameter (n = 32, nprocs = 2)
          real a(n, n), c(n, n)
        !hpf$ processors Pr(nprocs)
        !hpf$ template d(n)
        !hpf$ distribute d(block) onto Pr
        !hpf$ align a(*, :) with d
        !hpf$ align c(*, :) with d
          do j = 1, n
            forall (k = 1 : n)
              c(:, j) = sum(a(:, k) * a(k, j))
            end forall
          end do
        end program
        """
        session.compile(source=source,
                        options={"memory_budget_bytes": 32 * 1024})
        stored = list((tmp_path / "plans").glob("*.json"))
        assert stored, "budget compile should have persisted a plan"
        stored[0].unlink()  # simulate a lost best-effort write
        session.close()
        assert list((tmp_path / "plans").glob("*.json")), "close() flushes"
        assert session.cache_info()["size"] == 0

    def test_sessions_can_share_one_plan_cache(self, tmp_path):
        from repro.planner import PlanCache

        shared = PlanCache(tmp_path / "plans")
        first = Session(config=RunConfig(scratch_dir=tmp_path / "a"),
                        plan_cache=shared)
        second = Session(config=RunConfig(scratch_dir=tmp_path / "b"),
                         plan_cache=shared)
        assert first.plan_cache is shared and second.plan_cache is shared


# ---------------------------------------------------------------------------
# package-level exports
# ---------------------------------------------------------------------------
def test_top_level_session_quickstart(tmp_path):
    session = repro.Session(config=repro.RunConfig(scratch_dir=tmp_path))
    record = session.run(
        repro.WorkloadPoint("gaxpy", n=32, nprocs=2, version="row", slab_ratio=0.5),
        mode="execute",
    )
    assert isinstance(record, repro.RunRecord)
    assert record.verified is True
