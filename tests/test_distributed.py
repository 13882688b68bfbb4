"""The process-parallel EXECUTE backend: charge parity, failure handling, sweeps.

The backend's whole contract is that running a point with one OS process per
rank changes *nothing* about the record — every charged statistic must be
bit-identical to the single-process simulator.  The differential matrix here
compares full records field-by-field (only ``unix_time`` is exempt) across
workload kinds, processor counts, dtypes and start methods.  The rest of the
file covers the failure path (a SIGKILLed rank worker must surface as a
clean :class:`DistributedExecutionError` with its scratch reclaimed), the
process-pool sweep, and the reaper's live-owner protection.
"""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.api.session import Session
from repro.api.workload import WorkloadPoint, get_workload
from repro.config import ExecutionMode, RunConfig
from repro.exceptions import DistributedExecutionError, WorkloadError
from repro.machine.parameters import MachineParameters
from repro.resilience.faults import FaultPolicy
from repro.resilience.reaper import OWNER_FILE, reap_scratch, write_owner_file
from repro.runtime.distributed import (
    SHM_THRESHOLD_BYTES,
    PipeTransport,
    default_start_method,
    execute_distributed,
)
from repro.runtime.vm import VirtualMachine
from tests.scenarios import PARITY, hpf_source

PROGRAM_SOURCE = hpf_source("mm_add", 64, 4)


def run_config(tmp_path, **kwargs):
    return RunConfig(mode=ExecutionMode.EXECUTE, scratch_dir=tmp_path, **kwargs)


def comparable(record):
    out = record.to_dict()
    out.pop("unix_time", None)
    return out


def simulated_record(compiled, config, verify=True):
    with VirtualMachine(compiled.nprocs, compiled.params, config) as vm:
        return compiled.execute(vm, verify=verify)


# ---------------------------------------------------------------------------
# charge parity: the differential matrix
# ---------------------------------------------------------------------------
class TestChargeParity:
    @pytest.mark.parametrize("scenario", PARITY, ids=str)
    def test_record_bit_identical_to_simulator(self, tmp_path, scenario):
        point = scenario.point()
        params = MachineParameters()
        compiled = get_workload(point.workload).compile(point, params)
        config = run_config(tmp_path)
        sim = simulated_record(compiled, config)
        dist = execute_distributed(compiled, config, verify=True)
        assert comparable(dist) == comparable(sim)
        assert dist.verified is True
        assert not list(tmp_path.glob("vm_*")), "distributed scratch leaked"

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_start_methods_agree(self, tmp_path, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, slab_ratio=0.25,
                              version="column")
        compiled = get_workload("gaxpy").compile(point, MachineParameters())
        config = run_config(tmp_path)
        sim = simulated_record(compiled, config)
        dist = execute_distributed(compiled, config, verify=True,
                                   start_method=method)
        assert comparable(dist) == comparable(sim)

    def test_transient_faults_match_simulator(self, tmp_path):
        """Rank-local injection sums to the simulator's global fault counts."""
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, slab_ratio=0.25,
                              version="column")
        compiled = get_workload("gaxpy").compile(point, MachineParameters())
        policy = FaultPolicy(read_error_rate=0.05, write_error_rate=0.02, seed=3)
        config = run_config(tmp_path, fault_policy=policy)
        sim = simulated_record(compiled, config)
        dist = execute_distributed(compiled, config, verify=True)
        assert comparable(dist) == comparable(sim)
        assert sim.resilience["retries"] > 0, "the policy injected nothing"

    def test_one_transport_round_trip_per_column_block(self, tmp_path, monkeypatch):
        """Row-slab N=128 P=2: 4 row slabs x 4 coefficient slabs, each inside
        one owner's columns, is 16 column blocks for 512 result subcolumns —
        and 16 gathers at the root, every charged field still the simulator's."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("counting calls inside the workers needs fork")
        from repro.runtime.executor import _column_blocks, _plan_for
        from repro.runtime.slab import SlabbingStrategy

        point = WorkloadPoint("gaxpy", n=128, nprocs=2, slab_ratio=0.25, version="row")
        compiled = get_workload("gaxpy").compile(point, MachineParameters())
        program = compiled.program
        plan = _plan_for(program, SlabbingStrategy.ROW)
        b_lines = plan.entry(program.analysis.coefficient).lines_per_slab
        per_pass = _column_blocks(
            program.program.arrays[program.analysis.result],
            [(lo, min(lo + b_lines, 128)) for lo in range(0, 128, b_lines)],
        )
        blocks = plan.entry(program.analysis.streamed).num_slabs * sum(map(len, per_pass))
        assert blocks == 16

        # fork-started workers inherit both the patch and the shared counter
        root_gathers = multiprocessing.get_context("fork").Value("i", 0)
        gather = PipeTransport.gather_to_root

        def counting_gather(self, value, root=0):
            if self.rank == root:
                with root_gathers.get_lock():
                    root_gathers.value += 1
            return gather(self, value, root)

        monkeypatch.setattr(PipeTransport, "gather_to_root", counting_gather)
        config = run_config(tmp_path)
        dist = execute_distributed(compiled, config, verify=True, start_method="fork")
        assert root_gathers.value == blocks
        monkeypatch.undo()
        assert comparable(dist) == comparable(simulated_record(compiled, config))
        assert dist.verified is True

    def test_session_backend_routes_execute(self, tmp_path):
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, slab_ratio=0.25,
                              version="column")
        sim = Session(config=run_config(tmp_path)).run(point, mode="execute")
        dist = Session(config=run_config(tmp_path),
                       backend="processes").run(point, mode="execute")
        assert comparable(dist) == comparable(sim)

    def test_session_estimate_stays_analytic(self, tmp_path):
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, slab_ratio=0.25,
                              version="column")
        session = Session(config=run_config(tmp_path), backend="processes")
        record = session.run(point, mode="estimate")
        assert record.mode == "estimate" and record.simulated_seconds > 0


# ---------------------------------------------------------------------------
# failure handling
# ---------------------------------------------------------------------------
class TestWorkerFailure:
    def test_sigkilled_rank_worker_surfaces_and_reclaims_scratch(self, tmp_path):
        """SIGKILL on one rank: clean error, peers torn down, no scratch left."""
        point = WorkloadPoint("hpf", slab_ratio=0.25,
                              options={"source": PROGRAM_SOURCE})
        compiled = get_workload("hpf").compile(point, MachineParameters())
        policy = FaultPolicy(crash_after_statement=1, crash_rank=1)
        config = run_config(tmp_path, fault_policy=policy)
        with pytest.raises(DistributedExecutionError) as excinfo:
            execute_distributed(compiled, config, verify=True)
        assert excinfo.value.rank == 1
        assert excinfo.value.exitcode is not None
        assert not list(tmp_path.glob("vm_*")), "failed run leaked scratch"

    def test_worker_exception_ships_traceback(self, tmp_path, monkeypatch):
        """A raising worker reports its traceback instead of a bare exit code."""
        import repro.runtime.distributed.worker as worker_mod

        point = WorkloadPoint("gaxpy", n=64, nprocs=2, slab_ratio=0.25,
                              version="column")
        compiled = get_workload("gaxpy").compile(point, MachineParameters())

        def boom(rank, nprocs, spec, transport):
            raise RuntimeError("deliberate worker failure")

        # fork inherits the patched module, so every worker raises on entry
        monkeypatch.setattr(worker_mod, "_run", boom)
        with pytest.raises(DistributedExecutionError,
                           match="deliberate worker failure"):
            execute_distributed(compiled, run_config(tmp_path), verify=True,
                                start_method="fork")
        assert not list(tmp_path.glob("vm_*"))

    def test_session_rejects_resume_on_processes_backend(self, tmp_path):
        session = Session(config=run_config(tmp_path), backend="processes")
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, slab_ratio=0.25,
                              version="column")
        with pytest.raises(WorkloadError, match="resume"):
            session.run(point, mode="execute", resume=tmp_path / "vm_dead")

    def test_session_rejects_corruption_injection(self, tmp_path):
        config = run_config(tmp_path,
                            fault_policy=FaultPolicy(bitflip_rate=0.5, seed=1))
        session = Session(config=config, backend="processes")
        point = WorkloadPoint("gaxpy", n=64, nprocs=4, slab_ratio=0.25,
                              version="column")
        with pytest.raises(WorkloadError, match="corruption"):
            session.run(point, mode="execute")

    def test_session_validates_backend_and_start_method(self, tmp_path):
        with pytest.raises(WorkloadError, match="backend"):
            Session(config=run_config(tmp_path), backend="mpi")
        with pytest.raises(WorkloadError, match="start_method"):
            Session(config=run_config(tmp_path), backend="processes",
                    start_method="teleport")

    def test_default_start_method_is_available(self):
        assert default_start_method() in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------
def _transport_child(peers, conn):
    transport = PipeTransport(1, 2, peers)
    try:
        small = transport.broadcast_from(None, 0)
        big = transport.broadcast_from(None, 0)
        conn.send((small, float(big[0]), float(big[-1]), big.nbytes))
    finally:
        transport.close()
        conn.close()


class TestPipeTransport:
    def test_broadcast_inline_and_shared_memory(self):
        """Payloads below and above the shm threshold arrive intact."""
        ctx = multiprocessing.get_context("fork")
        a_end, b_end = ctx.Pipe(True)
        parent_conn, child_conn = ctx.Pipe(False)
        proc = ctx.Process(target=_transport_child,
                           args=({0: b_end}, child_conn), daemon=True)
        proc.start()
        b_end.close()
        child_conn.close()
        transport = PipeTransport(0, 2, {1: a_end})
        try:
            big = np.arange(SHM_THRESHOLD_BYTES // 8 + 16, dtype=np.float64)
            transport.broadcast_from({"answer": 42}, 0)
            transport.broadcast_from(big, 0)
            small, first, last, nbytes = parent_conn.recv()
        finally:
            transport.close()
            proc.join(timeout=10)
        assert small == {"answer": 42}
        assert (first, last) == (float(big[0]), float(big[-1]))
        assert nbytes == big.nbytes and nbytes >= SHM_THRESHOLD_BYTES


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------
class TestProcessSweep:
    POINTS = [
        WorkloadPoint("gaxpy", n=32, nprocs=4, slab_ratio=0.25, version="column"),
        WorkloadPoint("gaxpy", n=64, nprocs=4, slab_ratio=0.25, version="column"),
        WorkloadPoint("elementwise", n=32, nprocs=4, slab_ratio=0.25),
    ]

    def test_process_pool_matches_sequential(self, tmp_path):
        sequential = Session(config=run_config(tmp_path)).sweep(
            self.POINTS, mode="execute"
        )
        pooled = Session(config=run_config(tmp_path), backend="processes").sweep(
            self.POINTS, mode="execute", workers=2
        )
        assert [comparable(r) for r in pooled] == [comparable(r) for r in sequential]
        assert pooled.summary["points"] == len(self.POINTS)

    def test_workers_must_be_positive(self, tmp_path):
        session = Session(config=run_config(tmp_path))
        for workers in (0, -1):
            with pytest.raises(WorkloadError, match="workers must be at least 1"):
                session.sweep(self.POINTS[:1], workers=workers)

    def test_error_records_counted_under_error_bucket(self, tmp_path):
        good = self.POINTS[0]
        bad = WorkloadPoint("hpf", slab_ratio=0.25,
                            options={"source": "not a program"})
        result = Session(config=run_config(tmp_path)).sweep(
            [good, bad], mode="estimate", on_error="skip"
        )
        assert result.summary["failed"] == 1
        assert result.summary["optimizers"]["error"] == 1
        assert "error" not in (result[0].plan.get("optimizer"),)
        assert result[1].error is not None

    def test_error_record_carries_requested_optimizer(self, tmp_path):
        bad = WorkloadPoint("hpf", slab_ratio=0.25,
                            options={"source": "not a program"})
        result = Session(config=run_config(tmp_path), optimize="beam").sweep(
            [bad], mode="estimate", on_error="skip", optimize="greedy"
        )
        assert result[0].plan == {"optimizer": "greedy"}
        result = Session(config=run_config(tmp_path), optimize="beam").sweep(
            [bad], mode="estimate", on_error="skip"
        )
        assert result[0].plan == {"optimizer": "beam"}

    def test_process_sweep_skip_converts_failures(self, tmp_path):
        bad = WorkloadPoint("hpf", slab_ratio=0.25,
                            options={"source": "not a program"})
        session = Session(config=run_config(tmp_path), backend="processes")
        result = session.sweep([self.POINTS[0], bad, self.POINTS[1]],
                               mode="estimate", workers=2, on_error="skip")
        assert [r.error is None for r in result] == [True, False, True]
        assert result.summary["optimizers"]["error"] == 1


# ---------------------------------------------------------------------------
# the reaper's live-owner protection
# ---------------------------------------------------------------------------
class TestReaperOwnership:
    def make_stale_dir(self, tmp_path, name="vm_stale"):
        victim = tmp_path / name
        victim.mkdir()
        (victim / "slab.bin").write_bytes(b"x" * 16)
        old = 1.0  # epoch — ancient by any max-age
        os.utime(victim / "slab.bin", (old, old))
        os.utime(victim, (old, old))
        return victim

    def test_live_owner_is_never_reaped(self, tmp_path):
        victim = self.make_stale_dir(tmp_path)
        write_owner_file(victim)  # this process: alive by construction
        os.utime(victim / OWNER_FILE, (1.0, 1.0))
        os.utime(victim, (1.0, 1.0))
        assert reap_scratch(tmp_path, max_age_s=0.0) == []
        assert victim.exists()

    def test_dead_owner_is_reaped(self, tmp_path):
        victim = self.make_stale_dir(tmp_path)
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=lambda: None)
        proc.start()
        proc.join()
        (victim / OWNER_FILE).write_text(
            json.dumps({"pid": proc.pid, "started_unix": 1.0})
        )
        os.utime(victim / OWNER_FILE, (1.0, 1.0))
        os.utime(victim, (1.0, 1.0))
        assert reap_scratch(tmp_path, max_age_s=0.0) == [victim]
        assert not victim.exists()

    def test_unreadable_owner_file_falls_back_to_age(self, tmp_path):
        victim = self.make_stale_dir(tmp_path)
        (victim / OWNER_FILE).write_text("not json")
        os.utime(victim / OWNER_FILE, (1.0, 1.0))
        os.utime(victim, (1.0, 1.0))
        assert reap_scratch(tmp_path, max_age_s=0.0) == [victim]

    def test_vm_writes_owner_file(self, tmp_path):
        config = run_config(tmp_path)
        with VirtualMachine(2, MachineParameters(), config) as vm:
            owner = json.loads((vm.work_dir / OWNER_FILE).read_text())
            assert owner["pid"] == os.getpid()

    def test_distributed_job_dir_carries_owner_file(self, tmp_path):
        """The parent stamps the job dir so a concurrent reaper skips it."""
        point = WorkloadPoint("gaxpy", n=32, nprocs=2, slab_ratio=0.25,
                              version="column")
        compiled = get_workload("gaxpy").compile(point, MachineParameters())
        config = run_config(tmp_path, keep_files=True)
        execute_distributed(compiled, config, verify=True)
        job_dirs = list(tmp_path.glob("vm_*"))
        assert job_dirs and (job_dirs[0] / OWNER_FILE).exists()
