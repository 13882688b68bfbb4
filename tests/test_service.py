"""The compile-and-run service: parity, admission, cancellation, the wire.

The headline guarantee is *parity*: a record that travelled
``JobSpec -> HTTP -> JobService -> Session.run -> JSON -> RunRecord`` is
``==`` (every charged field bit-identical) to a direct ``Session.run`` of
the same point.  Everything else — admission caps, cancellation, draining,
malformed requests — is the operational shell around that guarantee.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.api import Session
from repro.api.records import RunRecord
from repro.api.workload import WorkloadPoint
from repro.config import RunConfig
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    AdmissionRejected,
    Job,
    JobService,
    JobSpec,
    JobState,
    ServiceClient,
    ServiceClosedError,
    ServiceError,
    UnknownJobError,
    point_from_json,
    point_to_json,
    serve_in_thread,
    spec_from_json,
)
from tests.scenarios import hpf_source

SEED = 20260808

HPF_SQUARE = hpf_source("square", 64, 4)


def _config(tmp_path, **overrides):
    return RunConfig(scratch_dir=tmp_path / "scratch", seed=SEED, **overrides)


def _point(workload="gaxpy", n=48, **kw):
    kw.setdefault("nprocs", 4)
    kw.setdefault("slab_ratio", 0.25)
    return WorkloadPoint(workload, n=n, **kw)


@pytest.fixture()
def service_handle(tmp_path):
    handle = serve_in_thread(JobService(config=_config(tmp_path), workers=2))
    yield handle
    handle.close()


# ---------------------------------------------------------------------------
# spec validation and wire codecs
# ---------------------------------------------------------------------------
class TestJobSpec:
    def test_needs_points(self):
        with pytest.raises(ServiceError, match="at least one"):
            JobSpec(points=())

    def test_rejects_bad_mode(self):
        with pytest.raises(ServiceError, match="mode"):
            JobSpec(points=(_point(),), mode="simulate")

    def test_rejects_negative_budgets_and_timeouts(self):
        with pytest.raises(ServiceError, match="memory_budget_bytes"):
            JobSpec(points=(_point(),), memory_budget_bytes=-1)
        with pytest.raises(ServiceError, match="scratch_bytes"):
            JobSpec(points=(_point(),), scratch_bytes=-1)
        with pytest.raises(ServiceError, match="timeout_s"):
            JobSpec(points=(_point(),), timeout_s=0)

    def test_point_roundtrip(self):
        point = _point(options={"memory_budget_bytes": 4096})
        assert point_from_json(point_to_json(point)) == point

    def test_unknown_point_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown point fields"):
            point_from_json({"workload": "gaxpy", "slab_ration": 0.5})

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown job fields"):
            spec_from_json({"points": [point_to_json(_point())], "quota": 1})

    def test_points_xor_source(self):
        with pytest.raises(ServiceError, match="exactly one"):
            spec_from_json({})
        with pytest.raises(ServiceError, match="exactly one"):
            spec_from_json({"points": [point_to_json(_point())], "source": "x"})

    def test_memory_budget_defaults_to_largest_point_option(self):
        spec = spec_from_json({"points": [
            point_to_json(_point(options={"memory_budget_bytes": 1000})),
            point_to_json(_point(options={"memory_budget_bytes": 9000})),
        ]})
        assert spec.memory_budget_bytes == 9000


class TestLifecycle:
    def test_illegal_transition_raises(self, tmp_path):
        job = Job(1, JobSpec(points=(_point(),)), tmp_path)
        with pytest.raises(ServiceError, match="illegal transition"):
            job.advance(JobState.RUNNING)  # QUEUED cannot skip ADMITTED

    def test_terminal_states_are_final(self, tmp_path):
        job = Job(2, JobSpec(points=(_point(),)), tmp_path)
        job.advance(JobState.CANCELLED)
        assert job.terminal
        with pytest.raises(ServiceError):
            job.advance(JobState.ADMITTED)


# ---------------------------------------------------------------------------
# admission control (unit level)
# ---------------------------------------------------------------------------
class TestAdmission:
    def _job(self, tmp_path, job_id, **spec_kw):
        scratch = tmp_path / f"job-{job_id}"
        scratch.mkdir(parents=True, exist_ok=True)
        return Job(job_id, JobSpec(points=(_point(),), **spec_kw), scratch)

    def test_queue_depth_rejects(self, tmp_path):
        control = AdmissionController(AdmissionPolicy(max_queue_depth=2))
        control.check_enqueue(1, JobSpec(points=(_point(),)))
        with pytest.raises(AdmissionRejected, match="queue full"):
            control.check_enqueue(2, JobSpec(points=(_point(),)))
        assert control.rejections == 1

    def test_impossible_demand_rejects_outright(self, tmp_path):
        control = AdmissionController(AdmissionPolicy(memory_budget_bytes=100))
        with pytest.raises(AdmissionRejected, match="never be admitted"):
            control.check_enqueue(0, JobSpec(points=(_point(),),
                                             memory_budget_bytes=101))

    def test_memory_cap_defers_then_admits_after_release(self, tmp_path):
        control = AdmissionController(AdmissionPolicy(memory_budget_bytes=100))
        first = self._job(tmp_path, 1, memory_budget_bytes=60)
        second = self._job(tmp_path, 2, memory_budget_bytes=60)
        assert control.try_admit(first) is True
        assert control.try_admit(second) is False  # 120 > 100: defer
        assert control.deferrals == 1
        control.release(first)
        assert control.try_admit(second) is True
        assert control.peak_memory_in_flight <= 100

    def test_scratch_quota_counts_measured_bytes(self, tmp_path):
        control = AdmissionController(AdmissionPolicy(scratch_quota_bytes=1000))
        first = self._job(tmp_path, 1)
        vm_dir = first.scratch_dir / "vm_deadbeef"
        vm_dir.mkdir()
        (vm_dir / "slab.laf").write_bytes(b"x" * 900)
        assert control.try_admit(first) is True
        second = self._job(tmp_path, 2, scratch_bytes=200)
        assert control.try_admit(second) is False  # 900 measured + 200 declared
        control.release(first)
        assert control.try_admit(second) is True
        stats = control.stats()
        assert stats["peak_scratch_in_flight_bytes"] <= 1000

    def test_release_is_idempotent(self, tmp_path):
        control = AdmissionController(AdmissionPolicy())
        job = self._job(tmp_path, 1)
        control.release(job)
        assert control.try_admit(job) is True
        control.release(job)
        control.release(job)
        assert control.stats()["in_flight"] == 0


# ---------------------------------------------------------------------------
# end to end over HTTP
# ---------------------------------------------------------------------------
class TestServiceParity:
    def test_concurrent_multitenant_parity(self, tmp_path):
        """8 concurrent mixed-tenant jobs, all bit-identical to direct runs."""
        points = [
            _point("gaxpy", n=48),
            _point("gaxpy", n=64),
            _point("transpose", n=48),
            _point("transpose", n=64),
            _point("elementwise", n=48),
            _point("elementwise", n=64),
            _point("gaxpy", n=48, slab_ratio=0.5),
            _point("transpose", n=48, slab_ratio=0.5),
        ]
        with Session(config=_config(tmp_path / "direct")) as session:
            direct = [session.run(p, mode="execute") for p in points]

        handle = serve_in_thread(
            JobService(config=_config(tmp_path / "served"), workers=4)
        )
        try:
            client = ServiceClient(port=handle.port)
            snapshots = [None] * len(points)

            def _submit(i):
                snapshots[i] = client.submit(JobSpec(
                    points=(points[i],), tenant=f"tenant-{i % 4}"))

            threads = [threading.Thread(target=_submit, args=(i,))
                       for i in range(len(points))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for i, snap in enumerate(snapshots):
                final = client.wait(snap["id"])
                assert final["state"] == "done", final
                (record,) = client.records(snap["id"])
                assert record == direct[i]  # every charged field, bit-identical
            metrics = client.metrics()
            assert metrics["jobs"]["done"] == len(points)
            assert len(metrics["tenants"]) == 4
        finally:
            handle.close()

    def test_record_json_roundtrip_is_lossless(self, tmp_path):
        with Session(config=_config(tmp_path)) as session:
            record = session.run(_point(), mode="execute")
        wire = json.loads(json.dumps(record.to_json_dict()))
        assert RunRecord.from_json_dict(wire) == record

    def test_record_from_json_rejects_unknown_fields(self, tmp_path):
        with Session(config=_config(tmp_path)) as session:
            record = session.run(_point(), mode="estimate")
        wire = record.to_json_dict()
        wire["bogus"] = 1
        with pytest.raises(ValueError, match="unknown RunRecord fields"):
            RunRecord.from_json_dict(wire)


class TestServiceEndToEnd:
    def test_streaming_preserves_order(self, tmp_path, service_handle):
        client = ServiceClient(port=service_handle.port)
        spec = JobSpec(points=(_point(n=48), _point(n=64), _point("transpose")),
                       mode="estimate")
        snap = client.submit(spec)
        events = list(client.stream(snap["id"]))
        record_events, terminal = events[:-1], events[-1]
        assert [e["index"] for e in record_events] == [0, 1, 2]
        assert terminal == {"state": "done", "error": None, "records": 3}

    def test_late_stream_subscriber_replays_all_records(self, tmp_path,
                                                        service_handle):
        client = ServiceClient(port=service_handle.port)
        snap = client.submit(JobSpec(points=(_point(), _point(n=64)),
                                     mode="estimate"))
        client.wait(snap["id"])  # finish first ...
        events = list(client.stream(snap["id"]))  # ... then subscribe
        assert [e["index"] for e in events[:-1]] == [0, 1]
        assert events[-1]["state"] == "done"

    def test_cancel_queued_job_is_immediate(self, tmp_path):
        # one worker + a running job keeps the second job QUEUED
        handle = serve_in_thread(JobService(config=_config(tmp_path), workers=1))
        try:
            client = ServiceClient(port=handle.port)
            running = client.submit(JobSpec(points=(_point(n=64),) * 2))
            queued = client.submit(JobSpec(points=(_point(),)))
            cancelled = client.cancel(queued["id"])
            assert cancelled["state"] == "cancelled"
            final = client.wait(running["id"])
            assert final["state"] == "done"
        finally:
            handle.close()

    def test_cancel_mid_run_keeps_partial_records_and_reclaims_scratch(
            self, tmp_path):
        handle = serve_in_thread(JobService(config=_config(tmp_path), workers=1))
        try:
            client = ServiceClient(port=handle.port)
            snap = client.submit(JobSpec(points=(_point(),) * 3))
            job = handle.server.service.get(snap["id"])
            events = []
            for event in client.stream(snap["id"]):
                events.append(event)
                if "record" in event and event["index"] == 0:
                    client.cancel(snap["id"])
            assert events[-1]["state"] == "cancelled"
            assert 1 <= events[-1]["records"] < 3  # partial results survive
            assert not job.scratch_dir.exists()  # scratch reclaimed
        finally:
            handle.close()

    def test_admission_queues_under_cap_and_peak_never_exceeds(self, tmp_path):
        cap = 100
        service = JobService(
            config=_config(tmp_path), workers=4,
            policy=AdmissionPolicy(memory_budget_bytes=cap),
        )
        handle = serve_in_thread(service)
        try:
            client = ServiceClient(port=handle.port)
            snaps = [client.submit(JobSpec(points=(_point(),), mode="estimate",
                                           memory_budget_bytes=60))
                     for _ in range(4)]
            for snap in snaps:
                assert client.wait(snap["id"])["state"] == "done"
            stats = client.metrics()["admission"]
            assert stats["admissions"] == 4
            assert stats["deferrals"] >= 1  # two 60s never fit under 100
            assert stats["peak_memory_in_flight_bytes"] <= cap
        finally:
            handle.close()

    def test_admission_rejects_map_to_429(self, tmp_path):
        service = JobService(
            config=_config(tmp_path),
            policy=AdmissionPolicy(memory_budget_bytes=100),
        )
        handle = serve_in_thread(service)
        try:
            client = ServiceClient(port=handle.port)
            with pytest.raises(AdmissionRejected, match="never be admitted"):
                client.submit(JobSpec(points=(_point(),),
                                      memory_budget_bytes=101))
        finally:
            handle.close()

    def test_unknown_workload_is_rejected_at_submit(self, tmp_path,
                                                    service_handle):
        client = ServiceClient(port=service_handle.port)
        with pytest.raises(ServiceError, match="[Uu]nknown workload"):
            client.submit(JobSpec(points=(WorkloadPoint("nonesuch"),)))
        assert client.jobs() == []  # rejected submissions never get an id

    def test_job_failure_is_contained(self, tmp_path, service_handle):
        client = ServiceClient(port=service_handle.port)
        # valid at submit time, fails in compile: hpf program with bad syntax
        snap = client.submit_source("this is not hpf",
                                    memory_budget_bytes=1 << 20)
        final = client.wait(snap["id"])
        assert final["state"] == "failed"
        assert "HPFSyntaxError" in final["error"]
        # the service keeps serving
        ok = client.submit(JobSpec(points=(_point(),), mode="estimate"))
        assert client.wait(ok["id"])["state"] == "done"


class TestHttpSurface:
    def test_malformed_requests_get_4xx(self, service_handle):
        def _raw(payload: bytes) -> int:
            with socket.create_connection(("127.0.0.1", service_handle.port),
                                          timeout=30) as sock:
                sock.sendall(payload)
                status_line = sock.makefile("rb").readline().decode()
            return int(status_line.split()[1])

        assert _raw(b"NONSENSE\r\n\r\n") == 400  # malformed request line
        assert _raw(b"GET /nonesuch HTTP/1.1\r\n\r\n") == 404
        assert _raw(b"PUT /jobs HTTP/1.1\r\n\r\n") == 405
        assert _raw(b"POST /jobs HTTP/1.1\r\n"
                    b"Content-Length: 7\r\n\r\nnotjson") == 400
        assert _raw(b"POST /jobs HTTP/1.1\r\n"
                    b"Content-Length: 999999999\r\n\r\n") == 413
        assert _raw(b"GET /jobs/notanumber HTTP/1.1\r\n\r\n") == 404

    def test_unknown_job_is_404(self, service_handle):
        client = ServiceClient(port=service_handle.port)
        with pytest.raises(UnknownJobError):
            client.job(4242)

    def test_health_and_metrics(self, service_handle):
        client = ServiceClient(port=service_handle.port)
        assert client.health() is True
        metrics = client.metrics()
        assert metrics["queue_depth"] == 0
        assert metrics["admission"]["max_queue_depth"] == 64
        assert 0.0 <= metrics["compile_cache"]["hit_rate"] <= 1.0


# ---------------------------------------------------------------------------
# in-process asyncio behaviour: drain, timeout, shared caches
# ---------------------------------------------------------------------------
class TestServiceInProcess:
    def test_graceful_drain_finishes_queued_work(self, tmp_path):
        async def scenario():
            service = JobService(config=_config(tmp_path), workers=1)
            await service.start()
            jobs = [await service.submit(JobSpec(points=(_point(),),
                                                 mode="estimate"))
                    for _ in range(3)]
            await service.close(drain=True)  # queued jobs still run
            assert [j.state for j in jobs] == [JobState.DONE] * 3
            with pytest.raises(ServiceClosedError):
                await service.submit(JobSpec(points=(_point(),)))
            return jobs

        jobs = asyncio.run(scenario())
        assert all(not j.scratch_dir.exists() for j in jobs)

    def test_close_without_drain_cancels_queued_jobs(self, tmp_path):
        async def scenario():
            service = JobService(config=_config(tmp_path), workers=1)
            await service.start()
            first = await service.submit(JobSpec(points=(_point(),),
                                                 mode="estimate"))
            queued = [await service.submit(JobSpec(points=(_point(),)))
                      for _ in range(3)]
            await service.close(drain=False)
            return first, queued

        first, queued = asyncio.run(scenario())
        # the in-flight job ran to its boundary; the queued ones never started
        assert first.state in (JobState.DONE, JobState.CANCELLED)
        assert all(j.state is JobState.CANCELLED for j in queued)
        assert all(not j.scratch_dir.exists() for j in queued)

    def test_timeout_fails_job_and_reclaims_scratch(self, tmp_path):
        async def scenario():
            service = JobService(config=_config(tmp_path), workers=1)
            await service.start()
            job = await service.submit(JobSpec(points=(_point(n=64),),
                                               timeout_s=1e-9))
            await service.wait(job.id)
            assert job.state is JobState.FAILED
            assert job.error.startswith("JobTimeout")
            await service.close()
            return job

        job = asyncio.run(scenario())
        assert not job.scratch_dir.exists()

    def test_tenants_share_compile_and_plan_caches(self, tmp_path):
        async def scenario():
            service = JobService(
                config=_config(tmp_path), workers=2,
                plan_cache_dir=tmp_path / "plans",
            )
            await service.start()
            # a budget-compiled HPF program exercises the plan search (and
            # hence the shared plan cache), unlike descriptor workloads
            point = WorkloadPoint("hpf", options={
                "source": HPF_SQUARE, "memory_budget_bytes": 48 * 1024})
            for tenant in ("alice", "bob", "carol"):
                job = await service.submit(JobSpec(
                    points=(point,), tenant=tenant, mode="estimate"))
                await service.wait(job.id)
                assert job.state is JobState.DONE
            metrics = service.metrics()
            await service.close()
            return metrics

        metrics = asyncio.run(scenario())
        # first tenant misses, the other two hit the shared compile LRU
        assert metrics["compile_cache"]["hits"] >= 2
        assert metrics["plan_cache"]["stores"] >= 1

    def test_job_ids_are_monotonic(self, tmp_path):
        async def scenario():
            service = JobService(config=_config(tmp_path))
            await service.start()
            ids = [
                (await service.submit(JobSpec(points=(_point(),),
                                              mode="estimate"))).id
                for _ in range(5)
            ]
            await service.close()
            return ids

        ids = asyncio.run(scenario())
        assert ids == sorted(ids) and len(set(ids)) == 5
