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
from tests.scenarios import hpf_source

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
