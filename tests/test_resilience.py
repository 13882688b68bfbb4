"""Unit coverage of the resilience layer.

Checksums and manifests, LAF integrity verification, idempotent
close/delete, the deterministic fault injector, the I/O engine's retry
loop, the scratch reaper and the Session-level error handling
(``sweep(on_error=...)``) — everything below the program executor, which
``test_resilience_program.py`` covers end to end.
"""

import json

import numpy as np
import pytest

from repro.config import RunConfig
from repro.exceptions import (
    IOEngineError,
    ReproError,
    SlabCorruptionError,
    TransientIOError,
    WorkloadError,
)
from repro.resilience import (
    FaultInjector,
    FaultPolicy,
    ResilienceStats,
    SlabManifest,
    reap_scratch,
    slab_checksum,
)
from repro.runtime.laf import LocalArrayFile
from repro.runtime.slab import Slab
from repro.runtime.vm import VirtualMachine


def _slab(r0, r1, c0, c1, index=0):
    return Slab(index=index, row_start=r0, row_stop=r1, col_start=c0, col_stop=c1)


# ---------------------------------------------------------------------------
# checksums and manifests
# ---------------------------------------------------------------------------
class TestSlabManifest:
    def test_checksum_is_storage_order_independent(self):
        data = np.arange(12, dtype=np.float32).reshape(3, 4)
        assert slab_checksum(data) == slab_checksum(np.asfortranarray(data))

    def test_roundtrip_through_sidecar(self, tmp_path):
        path = tmp_path / "laf.dat.sums.json"
        manifest = SlabManifest(path)
        data = np.ones((4, 4), dtype=np.float32)
        manifest.record((0, 4, 0, 4), slab_checksum(data))
        manifest.save()
        loaded = SlabManifest.load(path)
        assert loaded.matches((0, 4, 0, 4), data) is True
        assert loaded.matches((0, 4, 0, 4), data + 1) is False
        assert loaded.matches((0, 2, 0, 4), data[:2]) is None  # never recorded

    def test_overlapping_write_invalidates_stale_entry(self):
        manifest = SlabManifest()
        manifest.record((0, 4, 0, 4), 1)
        manifest.record((2, 6, 0, 4), 2)  # overlaps rows [2, 4)
        assert manifest.expected((0, 4, 0, 4)) is None
        assert manifest.expected((2, 6, 0, 4)) == 2

    def test_record_full_covers_everything(self):
        manifest = SlabManifest()
        manifest.record((0, 2, 0, 4), 1)
        manifest.record_full((8, 4), 7)
        assert list(manifest.entries) == [(0, 8, 0, 4)]

    def test_malformed_sidecar_is_rejected(self, tmp_path):
        path = tmp_path / "bad.sums.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(ValueError):
            SlabManifest.load(path)

    def test_unknown_algorithm_is_not_verifiable(self, tmp_path):
        path = tmp_path / "laf.dat.sums.json"
        manifest = SlabManifest(path)
        manifest.record((0, 1, 0, 1), 3)
        manifest.save()
        payload = json.loads(path.read_text())
        payload["algorithm"] = "md5-of-the-future"
        path.write_text(json.dumps(payload))
        loaded = SlabManifest.load(path)
        assert not loaded.verifiable
        assert loaded.matches((0, 1, 0, 1), np.zeros((1, 1))) is None


# ---------------------------------------------------------------------------
# LAF integrity
# ---------------------------------------------------------------------------
class TestLafIntegrity:
    def _laf(self, tmp_path, shape=(8, 8), order="F"):
        return LocalArrayFile(
            tmp_path / "laf_x_p0.dat", shape, np.float32, order=order,
            array_name="x", rank=0,
            manifest=SlabManifest(tmp_path / "laf_x_p0.dat.sums.json"),
        )

    def test_write_read_slab_verifies(self, tmp_path):
        laf = self._laf(tmp_path)
        slab = _slab(0, 4, 0, 8)
        data = np.random.default_rng(0).standard_normal((4, 8)).astype(np.float32)
        laf.write_slab(slab, data)
        np.testing.assert_array_equal(laf.read_slab(slab), data)
        assert laf.verify_checksums() == 1

    def test_manual_byte_flip_is_detected(self, tmp_path):
        laf = self._laf(tmp_path)
        laf.write_full(np.ones((8, 8), dtype=np.float32))
        laf.flush()
        raw = np.memmap(laf.path, dtype=np.uint8, mode="r+")
        raw[0] ^= 0xFF
        del raw
        with pytest.raises(SlabCorruptionError) as err:
            laf.read_full()
        assert err.value.array == "x" and err.value.rank == 0

    def test_injected_torn_write_is_detected(self, tmp_path):
        laf = self._laf(tmp_path)
        slab = _slab(0, 8, 0, 8)
        laf.write_slab(slab, np.ones((8, 8), dtype=np.float32))
        laf._inject_corruption(slab, "torn")
        with pytest.raises(SlabCorruptionError):
            laf.read_slab(slab)

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_injected_bitflip_is_detected_both_orders(self, tmp_path, order):
        laf = self._laf(tmp_path, order=order)
        slab = _slab(2, 6, 2, 6)
        laf.write_slab(slab, np.ones((4, 4), dtype=np.float32))
        laf._inject_corruption(slab, "bitflip")
        with pytest.raises(SlabCorruptionError):
            laf.read_slab(slab)

    def test_overwrite_clears_corruption(self, tmp_path):
        laf = self._laf(tmp_path)
        slab = _slab(0, 8, 0, 8)
        laf.write_slab(slab, np.ones((8, 8), dtype=np.float32))
        laf._inject_corruption(slab, "bitflip")
        fresh = np.full((8, 8), 2.0, dtype=np.float32)
        laf.write_slab(slab, fresh)
        np.testing.assert_array_equal(laf.read_slab(slab), fresh)

    def test_manifest_sidecar_persists_across_reopen(self, tmp_path):
        laf = self._laf(tmp_path)
        laf.write_full(np.ones((8, 8), dtype=np.float32))
        laf.close()
        manifest = SlabManifest.load(tmp_path / "laf_x_p0.dat.sums.json")
        reopened = LocalArrayFile(
            tmp_path / "laf_x_p0.dat", (8, 8), np.float32,
            create=False, array_name="x", rank=0, manifest=manifest,
        )
        assert reopened.verify_checksums() == 1


# ---------------------------------------------------------------------------
# idempotent close / delete, flush-error surfacing
# ---------------------------------------------------------------------------
class TestCloseDelete:
    def test_close_and_delete_are_idempotent(self, tmp_path):
        laf = LocalArrayFile(tmp_path / "a.dat", (4, 4), np.float32)
        laf.write_full(np.zeros((4, 4), dtype=np.float32))
        laf.close()
        laf.close()
        laf.delete()
        laf.delete()
        assert not laf.path.exists()

    def test_delete_removes_sidecar(self, tmp_path):
        laf = LocalArrayFile(
            tmp_path / "a.dat", (4, 4), np.float32,
            manifest=SlabManifest(tmp_path / "a.dat.sums.json"),
        )
        laf.write_full(np.zeros((4, 4), dtype=np.float32))
        laf.close()
        assert (tmp_path / "a.dat.sums.json").exists()
        laf.delete()
        assert not (tmp_path / "a.dat.sums.json").exists()

    def test_flush_failure_surfaces_with_identity(self, tmp_path, monkeypatch):
        laf = LocalArrayFile(
            tmp_path / "a.dat", (4, 4), np.float32, array_name="a", rank=3
        )
        laf.write_full(np.zeros((4, 4), dtype=np.float32))
        monkeypatch.setattr(
            type(laf._mm), "flush",
            lambda self: (_ for _ in ()).throw(OSError("disk gone")),
        )
        with pytest.raises(IOEngineError, match=r"a\[p3\].*disk gone"):
            laf.close()
        # The handle is dropped either way, and repeat closes stay silent.
        assert not laf.handle_open
        laf.close()

    def test_delete_never_masks_flush_error(self, tmp_path, monkeypatch):
        """``delete()`` has no flush error to mask: it never writes back.

        The file is unlinked, so its dirty pages are dropped, not synced;
        flush failures surface from ``close()`` (and ``flush()``) only.
        """
        flushes = []

        def failing_flush(self):
            flushes.append(self)
            raise OSError("disk gone")

        def dirty_laf(name):
            laf = LocalArrayFile(
                tmp_path / name, (4, 4), np.float32, array_name="a", rank=0,
                manifest=SlabManifest(tmp_path / f"{name}.sums.json"),
            )
            laf.write_full(np.ones((4, 4), dtype=np.float32))
            return laf

        doomed, kept = dirty_laf("doomed.dat"), dirty_laf("kept.dat")
        monkeypatch.setattr(type(doomed._mm), "flush", failing_flush)
        doomed.delete()
        assert flushes == []
        assert not doomed.handle_open
        assert not doomed.path.exists()
        assert not (tmp_path / "doomed.dat.sums.json").exists()  # never saved either
        doomed.delete()  # idempotent
        with pytest.raises(IOEngineError, match="closed"):
            doomed.read_full()
        # close() still writes back, and still names array and rank on failure.
        with pytest.raises(IOEngineError, match=r"a\[p0\].*disk gone"):
            kept.close()
        assert len(flushes) == 1
        kept.delete()  # after a failed close: still removes the file, silently
        assert not kept.path.exists()


# ---------------------------------------------------------------------------
# the fault injector
# ---------------------------------------------------------------------------
class TestFaultInjector:
    def test_draws_are_deterministic(self):
        policy = FaultPolicy(seed=42, read_error_rate=0.3)
        a, b = FaultInjector(policy), FaultInjector(policy)
        schedule_a = [self._fires_read(a, "x[p0]") for _ in range(64)]
        schedule_b = [self._fires_read(b, "x[p0]") for _ in range(64)]
        assert schedule_a == schedule_b
        assert any(schedule_a) and not all(schedule_a)

    @staticmethod
    def _fires_read(injector, site):
        try:
            injector.before_read(site)
        except TransientIOError:
            return True
        return False

    def test_sites_are_independent(self):
        policy = FaultPolicy(seed=42, read_error_rate=0.3)
        injector = FaultInjector(policy)
        a = [self._fires_read(injector, "x[p0]") for _ in range(64)]
        b = [self._fires_read(injector, "y[p1]") for _ in range(64)]
        assert a != b

    def test_consecutive_cap_forces_success(self):
        policy = FaultPolicy(seed=0, read_error_rate=1.0, max_failures_per_site=2)
        injector = FaultInjector(policy)
        fires = [self._fires_read(injector, "x[p0]") for _ in range(9)]
        # rate 1.0: fire, fire, forced pass, fire, fire, forced pass, ...
        assert fires == [True, True, False] * 3

    def test_corruption_cap_is_total(self):
        policy = FaultPolicy(seed=0, torn_write_rate=1.0, max_failures_per_site=2)
        injector = FaultInjector(policy)
        modes = [injector.corrupt_write("x[p0]") for _ in range(10)]
        assert modes.count("torn") == 2
        assert set(modes[2:]) == {None}  # the site's supply is exhausted
        assert injector.stats.torn_writes_injected == 2

    def test_inactive_policy_draws_nothing(self):
        injector = FaultInjector(FaultPolicy(seed=1))
        injector.before_read("x[p0]")
        injector.before_write("x[p0]")
        assert injector.corrupt_write("x[p0]") is None
        assert not injector.stats.any_activity()

    def test_policy_validates_rates(self):
        with pytest.raises(ValueError, match="read_error_rate"):
            FaultPolicy(read_error_rate=1.5)

    def test_stats_as_dict_is_float_valued(self):
        stats = ResilienceStats(retries=3)
        as_dict = stats.as_dict()
        assert as_dict["retries"] == 3.0
        assert all(isinstance(v, float) for v in as_dict.values())


# ---------------------------------------------------------------------------
# the I/O engine retry loop (through a real VM)
# ---------------------------------------------------------------------------
class TestEngineRetries:
    def _vm(self, tmp_path, policy):
        config = RunConfig(
            scratch_dir=tmp_path, fault_policy=policy, io_retry_backoff_s=0.0
        )
        return VirtualMachine(2, None, config)

    def test_transient_faults_are_retried_and_counted(self, tmp_path):
        policy = FaultPolicy(seed=5, read_error_rate=0.4, write_error_rate=0.4)
        with self._vm(tmp_path, policy) as vm:
            laf = LocalArrayFile(
                vm.work_dir / "x.dat", (16, 16), np.float32, array_name="x", rank=0
            )
            data = np.random.default_rng(0).standard_normal((16, 16)).astype(np.float32)
            slab = _slab(0, 16, 0, 16)
            for _ in range(8):
                vm.engine.write_slab(0, laf, slab, data)
                np.testing.assert_array_equal(vm.engine.read_slab(0, laf, slab), data)
            assert vm.resilience.retries > 0
            assert (
                vm.resilience.transient_read_faults
                + vm.resilience.transient_write_faults
            ) == vm.resilience.retries

    def test_retries_exhausted_raises_io_engine_error(self, tmp_path):
        # The config forbids an injector cap that could outlast the retry
        # budget, so exhaustion needs a genuinely persistent host error.
        config = RunConfig(scratch_dir=tmp_path, io_retries=2, io_retry_backoff_s=0.0)
        with VirtualMachine(1, None, config) as vm:
            laf = LocalArrayFile(
                vm.work_dir / "x.dat", (4, 4), np.float32, array_name="x", rank=0
            )

            def broken_read(slab):
                raise OSError("media error")

            laf.read_slab = broken_read
            with pytest.raises(IOEngineError, match=r"x\[p0\] still failing after 2"):
                vm.engine.read_slab(0, laf, _slab(0, 4, 0, 4))

    def test_config_rejects_cap_at_or_above_retries(self, tmp_path):
        policy = FaultPolicy(read_error_rate=0.1, max_failures_per_site=4)
        with pytest.raises(ValueError, match="max_failures_per_site"):
            RunConfig(scratch_dir=tmp_path, fault_policy=policy, io_retries=4)


# ---------------------------------------------------------------------------
# the scratch reaper
# ---------------------------------------------------------------------------
class TestReaper:
    def test_reaps_only_old_vm_dirs(self, tmp_path):
        old = tmp_path / "vm_dead"
        old.mkdir()
        (old / "laf.dat").write_bytes(b"x")
        fresh = tmp_path / "vm_live"
        fresh.mkdir()
        unrelated = tmp_path / "keep_me"
        unrelated.mkdir()
        import os
        import time

        stale = time.time() - 7 * 24 * 3600
        for p in (old, old / "laf.dat"):
            os.utime(p, (stale, stale))
        removed = reap_scratch(tmp_path, max_age_s=3600.0)
        assert removed == [old]
        assert not old.exists() and fresh.exists() and unrelated.exists()

    def test_live_file_keeps_directory(self, tmp_path):
        import os
        import time

        vm_dir = tmp_path / "vm_active"
        vm_dir.mkdir()
        (vm_dir / "laf.dat").write_bytes(b"x")  # fresh mtime
        stale = time.time() - 7 * 24 * 3600
        os.utime(vm_dir, (stale, stale))
        assert reap_scratch(tmp_path, max_age_s=3600.0) == []
        assert vm_dir.exists()

    def test_missing_root_is_empty(self, tmp_path):
        assert reap_scratch(tmp_path / "nope", max_age_s=0.0) == []

    def test_negative_age_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            reap_scratch(tmp_path, max_age_s=-1.0)

    def test_session_startup_reaps(self, tmp_path):
        import os
        import time

        from repro import Session

        old = tmp_path / "vm_orphan"
        old.mkdir()
        stale = time.time() - 7 * 24 * 3600
        os.utime(old, (stale, stale))
        Session(config=RunConfig(scratch_dir=tmp_path))
        assert not old.exists()


# ---------------------------------------------------------------------------
# scratch byte accounting (the job service's disk-quota gauge)
# ---------------------------------------------------------------------------
class TestScratchUsage:
    def _vm_dir(self, tmp_path, name, nbytes):
        directory = tmp_path / name
        directory.mkdir()
        (directory / "slab.laf").write_bytes(b"x" * nbytes)
        return directory

    def test_counts_bytes_per_vm_dir(self, tmp_path):
        from repro.resilience import scratch_usage, scratch_usage_bytes

        self._vm_dir(tmp_path, "vm_aaa", 100)
        self._vm_dir(tmp_path, "vm_bbb", 250)
        (tmp_path / "unrelated").mkdir()  # does not match vm_*
        assert scratch_usage(tmp_path) == {"vm_aaa": 100, "vm_bbb": 250}
        assert scratch_usage_bytes(tmp_path) == 350

    def test_nested_files_are_included(self, tmp_path):
        from repro.resilience import scratch_usage_bytes

        vm_dir = self._vm_dir(tmp_path, "vm_nested", 10)
        deep = vm_dir / "a" / "b"
        deep.mkdir(parents=True)
        (deep / "chunk.laf").write_bytes(b"y" * 90)
        assert scratch_usage_bytes(tmp_path) == 100

    def test_skip_live_omits_owned_directories(self, tmp_path):
        import json
        import os

        from repro.resilience import scratch_usage_bytes

        live = self._vm_dir(tmp_path, "vm_live", 64)
        (live / "owner.json").write_text(json.dumps({"pid": os.getpid()}))
        dead = self._vm_dir(tmp_path, "vm_dead", 32)
        (dead / "owner.json").write_text(json.dumps({"pid": 2 ** 30}))
        # each dir's bytes include its own owner.json marker
        live_marker = (live / "owner.json").stat().st_size
        dead_marker = (dead / "owner.json").stat().st_size
        assert scratch_usage_bytes(tmp_path) == 96 + live_marker + dead_marker
        assert scratch_usage_bytes(tmp_path, skip_live=True) == 32 + dead_marker

    def test_missing_root_is_zero(self, tmp_path):
        from repro.resilience import scratch_usage, scratch_usage_bytes

        assert scratch_usage(tmp_path / "nope") == {}
        assert scratch_usage_bytes(tmp_path / "nope") == 0


# ---------------------------------------------------------------------------
# sweep error handling
# ---------------------------------------------------------------------------
class TestSweepOnError:
    @pytest.fixture()
    def session(self, tmp_path):
        from repro import Session

        return Session(config=RunConfig(scratch_dir=tmp_path), reap_max_age_s=None)

    def _points(self):
        from repro import WorkloadPoint

        good = WorkloadPoint("gaxpy", n=32, nprocs=4, version="row", slab_ratio=0.5)
        bad = WorkloadPoint(
            "hpf", slab_ratio=0.5, options={"source": "this is not a program"}
        )
        return [good, bad, good]

    def test_default_raises(self, session):
        with pytest.raises(ReproError):
            session.sweep(self._points())

    def test_skip_yields_error_record(self, session):
        records = session.sweep(self._points(), on_error="skip")
        assert len(records) == 3
        assert records[0].ok and records[2].ok
        failed = records[1]
        assert not failed.ok
        assert failed.error is not None and "HPFSyntaxError" in failed.error
        assert failed.simulated_seconds == 0.0
        assert records.summary["failed"] == 1
        assert "FAILED" in failed.describe()
        assert failed.to_dict()["error"] == failed.error

    def test_skip_matches_in_parallel(self, session):
        sequential = session.sweep(self._points(), on_error="skip")
        parallel = session.sweep(self._points(), on_error="skip", workers=3)
        assert [r.error for r in sequential] == [r.error for r in parallel]
        assert [r.simulated_seconds for r in sequential] == [
            r.simulated_seconds for r in parallel
        ]

    def test_unknown_mode_rejected(self, session):
        with pytest.raises(WorkloadError, match="on_error"):
            session.sweep(self._points(), on_error="ignore")
