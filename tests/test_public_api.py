"""Smoke tests for the package-level public API and configuration objects."""

import numpy as np

import repro
from repro.config import ExecutionMode, RunConfig, default_config
from repro.runtime import ReductionInputs


class TestPackageExports:
    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_top_level_names(self):
        for name in (
            "Machine",
            "ProcessorGrid",
            "Template",
            "Alignment",
            "ArrayDescriptor",
            "compile_gaxpy",
            "compile_program",
            "compile_source",
            "VirtualMachine",
            "NodeProgramExecutor",
            "RunConfig",
            "ExecutionMode",
            "ReproError",
            "Session",
            "WorkloadPoint",
            "CompiledWorkload",
            "RunRecord",
            "Workload",
            "register_workload",
            "get_workload",
            "available_workloads",
        ):
            assert hasattr(repro, name), f"repro.{name} missing"
            assert name in repro.__all__

    def test_end_to_end_through_top_level_names(self, tmp_path):
        compiled = repro.compile_gaxpy(32, 2, slab_ratio=0.5)
        rng = np.random.default_rng(1994)
        inputs = ReductionInputs(
            streamed=rng.standard_normal((32, 32)).astype("float32"),
            coefficient=rng.standard_normal((32, 32)).astype("float32"),
        )
        with repro.VirtualMachine(2, compiled.params, RunConfig(scratch_dir=tmp_path)) as vm:
            result = repro.NodeProgramExecutor(compiled).execute(vm, inputs)
        assert result.verified is True

    def test_end_to_end_through_session_api(self, tmp_path):
        session = repro.Session(config=RunConfig(scratch_dir=tmp_path))
        point = repro.WorkloadPoint("gaxpy", n=32, nprocs=2, version="row", slab_ratio=0.5)
        assert session.run(point, mode="execute").verified is True
        assert set(repro.available_workloads()) >= {"gaxpy", "transpose", "elementwise", "hpf"}


class TestRunConfig:
    def test_defaults(self):
        config = default_config()
        assert config.mode is ExecutionMode.EXECUTE
        assert config.verify is True
        assert config.seed == 1994

    def test_string_mode_accepted(self):
        assert RunConfig(mode="estimate").mode is ExecutionMode.ESTIMATE

    def test_with_mode(self):
        config = default_config()
        other = config.with_mode("estimate")
        assert other.mode is ExecutionMode.ESTIMATE
        assert config.mode is ExecutionMode.EXECUTE

    def test_ensure_scratch_dir(self, tmp_path):
        config = RunConfig(scratch_dir=tmp_path / "nested" / "laf")
        path = config.ensure_scratch_dir()
        assert path.is_dir()
