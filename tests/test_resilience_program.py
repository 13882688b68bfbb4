"""Program-level fault recovery: charge-neutral retries and regeneration.

Runs real multi-statement programs under seeded fault policies and asserts
the paper-facing invariant of the resilience layer: a run that detected and
recovered faults reports *exactly* the same charged statistics (simulated
seconds, per-processor I/O counters, per-statement breakdowns) as a clean
run, with all the recovery work visible only in the host-side
``resilience`` counters.
"""

import pytest

from repro import Session, WorkloadPoint
from repro.config import RunConfig
from repro.resilience import FaultPolicy
from tests.scenarios import Scenario, hpf_source

PROGRAM_SOURCE = hpf_source("add_chain", 16, 2)

FAULTY = FaultPolicy(
    seed=3,
    read_error_rate=0.2,
    write_error_rate=0.1,
    disk_full_rate=0.05,
    torn_write_rate=0.1,
    bitflip_rate=0.05,
)


def _session(tmp_path, policy=None, **config_kwargs):
    config = RunConfig(
        scratch_dir=tmp_path, fault_policy=policy,
        io_retry_backoff_s=0.0, **config_kwargs
    )
    return Session(config=config, reap_max_age_s=None)


def _charged_fields(record):
    return {
        "simulated_seconds": record.simulated_seconds,
        "io_time": record.io_time,
        "compute_time": record.compute_time,
        "comm_time": record.comm_time,
        "io_requests_per_proc": record.io_requests_per_proc,
        "io_read_bytes_per_proc": record.io_read_bytes_per_proc,
        "io_write_bytes_per_proc": record.io_write_bytes_per_proc,
        "statements": record.statements,
    }


class TestProgramRecovery:
    def test_faulty_program_verifies_and_charges_identically(self, tmp_path):
        clean = _session(tmp_path).execute(
            _session(tmp_path).compile(source=PROGRAM_SOURCE, slab_ratio=0.25)
        )
        session = _session(tmp_path, FAULTY)
        faulty = session.execute(session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25))
        assert clean.verified and faulty.verified
        assert _charged_fields(faulty) == _charged_fields(clean)
        assert faulty.resilience["corruptions_detected"] > 0
        assert faulty.resilience["retries"] > 0

    def test_resilience_counters_are_deterministic(self, tmp_path):
        session = _session(tmp_path, FAULTY)
        compiled = session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25)
        first = session.execute(compiled)
        # A fresh session restarts the injector's draw sequence.
        second = _session(tmp_path, FAULTY).execute(compiled)
        assert first.resilience == second.resilience

    def test_quiet_run_reports_no_resilience_block(self, tmp_path):
        session = _session(tmp_path)
        record = session.execute(session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25))
        assert "resilience" not in record.to_dict()
        assert all(v == 0.0 for v in record.resilience.values())

    def test_faulty_run_serializes_counters(self, tmp_path):
        session = _session(tmp_path, FAULTY)
        record = session.execute(session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25))
        assert record.to_dict()["resilience"]["corruptions_detected"] > 0

    def test_checksums_off_disables_detection(self, tmp_path):
        # Corruption-only policy with verification off: damage flows into
        # the final gather unchecked, so verification against the oracle
        # must fail — proving the checksums are what catches it.
        policy = FaultPolicy(seed=1, torn_write_rate=1.0, max_failures_per_site=3)
        session = _session(tmp_path, policy, checksums=False)
        record = session.execute(
            session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25)
        )
        assert record.verified is False
        assert record.resilience["corruptions_detected"] == 0.0
        assert record.resilience["torn_writes_injected"] > 0

    @pytest.mark.parametrize(
        "point",
        [
            WorkloadPoint("gaxpy", n=32, nprocs=4, version="row", slab_ratio=0.25),
            WorkloadPoint("gaxpy", n=32, nprocs=4, version="column", slab_ratio=0.25),
            WorkloadPoint("elementwise", n=32, nprocs=4, slab_ratio=0.25),
            WorkloadPoint("transpose", n=32, nprocs=4, slab_ratio=0.25),
        ],
        ids=["gaxpy-row", "gaxpy-col", "elementwise", "transpose"],
    )
    def test_single_statement_workloads_recover(self, tmp_path, point):
        clean = _session(tmp_path).execute(point)
        faulty = _session(tmp_path, FAULTY).execute(point)
        assert clean.verified and faulty.verified
        assert _charged_fields(faulty) == _charged_fields(clean)

    def test_journal_records_every_statement(self, tmp_path):
        import json

        session = _session(tmp_path, keep_files=True)
        record = session.execute(
            session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25)
        )
        assert record.verified
        vm_dirs = sorted(tmp_path.glob("vm_*"))
        assert len(vm_dirs) == 1
        journal = json.loads((vm_dirs[0] / "journal.json").read_text())
        assert journal["complete"] is True
        assert [entry["index"] for entry in journal["statements"]] == [0, 1, 2]
        for entry in journal["statements"]:
            for arrays in entry["arrays"].values():
                for file_info in arrays["files"]:
                    assert (vm_dirs[0] / file_info["path"]).exists() or (
                        tmp_path / file_info["path"]
                    ).exists() or file_info["path"].startswith(str(vm_dirs[0]))

    def test_corrupted_input_is_redrawn_on_its_own_rank_only(self, tmp_path, monkeypatch):
        """A bit flip in one rank's file of a program input is repaired by
        re-writing that rank's block alone, as ``create_array`` wrote it."""
        from repro.runtime.executor import ProgramExecutor
        from repro.runtime.laf import LocalArrayFile
        from repro.runtime.operands import input_operands
        from repro.runtime.slab import Slab
        from repro.runtime.vm import VirtualMachine

        # one slab per local array: the statement's first read of ``a``
        # checks the whole-file checksum its creation recorded
        compiled = Scenario("mm_add", 16, 4, ratio=1.0).compile()
        inputs = input_operands(compiled.program, 5)
        writes = []
        write_full = LocalArrayFile.write_full

        def recording(laf, data):
            writes.append((laf.array_name, laf.rank))
            return write_full(laf, data)

        monkeypatch.setattr(LocalArrayFile, "write_full", recording)

        def vm_at(tag):
            return VirtualMachine(4, compiled.params, RunConfig(scratch_dir=tmp_path / tag))

        with vm_at("clean") as vm:
            clean = ProgramExecutor(compiled).run(vm, inputs)
        with vm_at("faulty") as vm:
            create = vm.create_array

            def create_then_flip(descriptor, initial=None, storage_order="F"):
                array = create(descriptor, initial, storage_order)
                if descriptor.name == "a":
                    laf = array.local(1).laf
                    laf._inject_corruption(Slab(0, 0, laf.shape[0], 0, laf.shape[1]), "bitflip")
                    writes.clear()
                return array

            vm.create_array = create_then_flip
            faulty = ProgramExecutor(compiled).run(vm, inputs)
            repaired = vm.arrays["a"].local(1).laf
            repaired.flush()
            repaired_bytes = repaired.path.read_bytes()
            assert vm.resilience.corruptions_detected == 1
        assert [write for write in writes if write[0] == "a"] == [("a", 1)]
        with vm_at("fresh") as vm:
            fresh = vm.create_array(compiled.program.arrays["a"], inputs["a"], repaired.order)
            fresh.local(1).laf.flush()
            assert fresh.local(1).laf.path.read_bytes() == repaired_bytes
        assert clean.verified is True and faulty.verified is True
        for field in ("simulated_seconds", "time_breakdown", "io_statistics", "statements"):
            assert getattr(faulty, field) == getattr(clean, field)
