"""Checkpoint/resume: SIGKILL a child mid-program, resume from its journal.

The acceptance scenario of the resilience PR: a 3-statement program killed
after statement 1 must resume executing only statements 2-3.  The child
process runs with ``FaultPolicy(crash_after_statement=1)`` — SIGKILL fires
right after the journal commits the first statement — and the parent
resumes from the orphaned ``vm_*`` scratch directory via
``Session.run(..., resume=...)``.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import Session
from repro.config import ExecutionMode, RunConfig
from repro.exceptions import WorkloadError
from repro.resilience.checksums import CHECKSUM_ALGORITHM
from tests.scenarios import hpf_source

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="SIGKILL semantics are POSIX-only"
)

PROGRAM_SOURCE = hpf_source("add_chain", 16, 2)

CHILD_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro import Session
    from repro.config import RunConfig
    from repro.resilience import FaultPolicy

    scratch, crash_after = sys.argv[1], int(sys.argv[2])
    policy = FaultPolicy(crash_after_statement=crash_after)
    session = Session(
        config=RunConfig(scratch_dir=scratch, fault_policy=policy, keep_files=True),
        reap_max_age_s=None,
    )
    session.execute(session.compile(source=PROGRAM, slab_ratio=0.25))
    print("survived", flush=True)  # only reached when the hook never fires
    """
).replace("PROGRAM", repr(PROGRAM_SOURCE))


def _run_child(scratch, crash_after: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", CHILD_SCRIPT, str(scratch), str(crash_after)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def _orphaned_vm_dir(scratch):
    vm_dirs = sorted(scratch.glob("vm_*"))
    assert len(vm_dirs) == 1, f"expected one orphaned vm dir, got {vm_dirs}"
    return vm_dirs[0]


class TestKillAndResume:
    def test_killed_after_statement_1_resumes_statements_2_and_3(self, tmp_path):
        proc = _run_child(tmp_path, crash_after=1)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "survived" not in proc.stdout

        vm_dir = _orphaned_vm_dir(tmp_path)
        journal = json.loads((vm_dir / "journal.json").read_text())
        assert journal["complete"] is False
        assert [e["index"] for e in journal["statements"]] == [0]

        session = Session(
            config=RunConfig(scratch_dir=tmp_path), reap_max_age_s=None
        )
        record = session.run(
            session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25),
            mode="execute",
            resume=vm_dir,
        )
        assert record.verified is True
        skipped = [s.get("skipped", 0.0) for s in record.statements]
        assert skipped == [1.0, 0.0, 0.0]
        assert record.resilience["statements_skipped"] == 1.0
        # The skipped statement charges nothing on resume.
        assert record.statements[0]["seconds"] == 0.0

    def test_killed_after_statement_2_skips_two(self, tmp_path):
        proc = _run_child(tmp_path, crash_after=2)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        vm_dir = _orphaned_vm_dir(tmp_path)
        session = Session(
            config=RunConfig(scratch_dir=tmp_path), reap_max_age_s=None
        )
        record = session.run(
            session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25),
            mode="execute",
            resume=vm_dir,
        )
        assert record.verified is True
        assert [s.get("skipped", 0.0) for s in record.statements] == [1.0, 1.0, 0.0]

    def test_corrupted_checkpoint_restarts_from_the_damage(self, tmp_path):
        proc = _run_child(tmp_path, crash_after=2)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        vm_dir = _orphaned_vm_dir(tmp_path)

        # Damage a LAF of the first checkpointed statement's result array.
        journal = json.loads((vm_dir / "journal.json").read_text())
        target = journal["statements"][0]["arrays"]["t"]["files"][0]["path"]
        raw = np.memmap(target, dtype=np.uint8, mode="r+")
        raw[0] ^= 0xFF
        del raw

        session = Session(
            config=RunConfig(scratch_dir=tmp_path), reap_max_age_s=None
        )
        record = session.run(
            session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25),
            mode="execute",
            resume=vm_dir,
        )
        # Statement 1's checkpoint failed validation, so everything re-ran.
        assert record.verified is True
        assert record.resilience["statements_skipped"] == 0.0

    @pytest.mark.parametrize("field", ["algorithm", "version"])
    def test_checkpoint_it_cannot_verify_is_not_trusted(self, tmp_path, field):
        """Sidecars written under another checksum algorithm, or under the
        version 1 definition (C-order bytes), cannot vouch for their files: a
        corrupted checkpoint behind them must re-run, not be skipped because
        nothing could check it."""
        proc = _run_child(tmp_path, crash_after=2)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        vm_dir = _orphaned_vm_dir(tmp_path)

        relabel = {"algorithm": "crc32" if CHECKSUM_ALGORITHM == "crc32c" else "crc32c",
                   "version": 1}
        sidecars = sorted(vm_dir.glob("*.sums.json"))
        assert sidecars
        for sidecar in sidecars:
            payload = json.loads(sidecar.read_text())
            payload[field] = relabel[field]
            sidecar.write_text(json.dumps(payload))
        journal = json.loads((vm_dir / "journal.json").read_text())
        target = journal["statements"][0]["arrays"]["t"]["files"][0]["path"]
        raw = np.memmap(target, dtype=np.uint8, mode="r+")
        raw[0] ^= 0xFF
        del raw

        session = Session(
            config=RunConfig(scratch_dir=tmp_path), reap_max_age_s=None
        )
        record = session.run(
            session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25),
            mode="execute",
            resume=vm_dir,
        )
        assert record.verified is True
        assert record.resilience["statements_skipped"] == 0.0

    def test_different_program_invalidates_checkpoint(self, tmp_path):
        proc = _run_child(tmp_path, crash_after=1)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        vm_dir = _orphaned_vm_dir(tmp_path)
        other = PROGRAM_SOURCE.replace(
            "c(:, :) = add(u(:, :), a(:, :))",
            "c(:, :) = multiply(u(:, :), a(:, :))",
        )
        session = Session(
            config=RunConfig(scratch_dir=tmp_path), reap_max_age_s=None
        )
        record = session.run(
            session.compile(source=other, slab_ratio=0.25),
            mode="execute",
            resume=vm_dir,
        )
        # Fingerprint mismatch: the stale journal is discarded entirely.
        assert record.verified is True
        assert record.resilience["statements_skipped"] == 0.0

    def test_resume_of_complete_run_skips_everything(self, tmp_path):
        session = Session(
            config=RunConfig(scratch_dir=tmp_path, keep_files=True),
            reap_max_age_s=None,
        )
        compiled = session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25)
        first = session.execute(compiled)
        assert first.verified is True
        vm_dir = _orphaned_vm_dir(tmp_path)
        record = session.run(compiled, mode="execute", resume=vm_dir)
        assert record.verified is True
        assert [s.get("skipped", 0.0) for s in record.statements] == [1.0, 1.0, 1.0]
        assert record.simulated_seconds == 0.0

    def test_resume_requires_execute_mode(self, tmp_path):
        session = Session(
            config=RunConfig(scratch_dir=tmp_path), reap_max_age_s=None
        )
        compiled = session.compile(source=PROGRAM_SOURCE, slab_ratio=0.25)
        with pytest.raises(WorkloadError, match="resume"):
            session.run(compiled, mode=ExecutionMode.ESTIMATE, resume=tmp_path)
