"""Tests for the estimation service (repro.service).

Covers request normalization/fingerprinting, the job queue (results,
failure capture, priority ordering), the coalescing contract — N
concurrent identical submits trigger exactly one backend computation —
and the ``leqa serve`` daemon protocol, both in-process and as a real
``serve → submit → result`` subprocess round trip (the CI smoke test).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.engine import register_backend
from repro.engine.backend import BackendResult
from repro.exceptions import QueueDrainingError, QueueFullError, ServiceError
from repro.service import (
    EstimationServer,
    JobQueue,
    ServiceClient,
    normalize_request,
    request_fingerprint,
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


class _RecordingBackend:
    """Test backend: logs each run and sleeps to hold the coalescing window."""

    calls: list[str] = []
    delay = 0.0

    name = "svc-recorder"

    def __init__(self, params=None, cache=None, **_options: object) -> None:
        self._params = params

    def run(self, circuit) -> BackendResult:
        _RecordingBackend.calls.append(circuit.name)
        if _RecordingBackend.delay:
            time.sleep(_RecordingBackend.delay)
        return BackendResult(
            backend=self.name,
            latency=1.0,
            elapsed_seconds=0.0,
            qubit_count=circuit.num_qubits,
            op_count=len(circuit),
            detail=None,
        )


register_backend(
    "svc-recorder", lambda **kw: _RecordingBackend(**kw), overwrite=True
)


class _GatedBackend:
    """Test backend that holds its worker until :attr:`gate` is set."""

    gate = threading.Event()

    name = "svc-gated"

    def __init__(self, params=None, cache=None, **_options: object) -> None:
        self._params = params

    def run(self, circuit) -> BackendResult:
        _GatedBackend.gate.wait(timeout=60)
        return BackendResult(
            backend=self.name,
            latency=1.0,
            elapsed_seconds=0.0,
            qubit_count=circuit.num_qubits,
            op_count=len(circuit),
            detail=None,
        )


register_backend(
    "svc-gated", lambda **kw: _GatedBackend(**kw), overwrite=True
)


@pytest.fixture(autouse=True)
def _reset_recorder():
    _RecordingBackend.calls = []
    _RecordingBackend.delay = 0.0
    yield


class TestNormalization:
    def test_defaults_are_made_explicit(self):
        normalized = normalize_request({"source": "ham3"})
        assert normalized["backend"] == "leqa"
        assert normalized["ft"] is True
        assert normalized["params"]["width"] == 60

    def test_spellings_share_a_fingerprint(self):
        implicit = normalize_request({"source": "ham3"})
        explicit = normalize_request(
            {
                "source": "ham3",
                "backend": "leqa",
                "ft": True,
                "params": {"width": 60, "height": 60},
            }
        )
        assert request_fingerprint(implicit) == request_fingerprint(explicit)

    def test_distinct_requests_differ(self):
        one = normalize_request({"source": "ham3"})
        two = normalize_request(
            {"source": "ham3", "params": {"width": 40, "height": 40}}
        )
        assert request_fingerprint(one) != request_fingerprint(two)

    def test_rejects_unknown_fields_sources_and_backends(self):
        with pytest.raises(ServiceError, match="unknown request field"):
            normalize_request({"source": "ham3", "typo": 1})
        with pytest.raises(ServiceError, match="neither a registered"):
            normalize_request({"source": "no_such_benchmark"})
        with pytest.raises(ServiceError, match="unknown backend"):
            normalize_request({"source": "ham3", "backend": "nope"})
        with pytest.raises(ServiceError, match="unknown params field"):
            normalize_request({"source": "ham3", "params": {"depth": 3}})
        with pytest.raises(ServiceError, match="non-empty 'source'"):
            normalize_request({})


class TestJobQueue:
    def test_submit_result_roundtrip(self):
        with JobQueue(workers=2) as queue:
            job_id = queue.submit(
                {"source": "ham3", "params": {"width": 12, "height": 12}}
            )
            snapshot = queue.result(job_id, timeout=60)
        assert snapshot["state"] == "done"
        assert snapshot["result"]["latency_seconds"] > 0
        assert snapshot["error"] is None

    def test_failure_captures_traceback(self):
        with JobQueue(workers=1) as queue:
            # A zero qubit speed fails parameter validation in the
            # worker; the record keeps the evidence, the worker survives.
            job_id = queue.submit(
                {"source": "ham3", "params": {"qubit_speed": 0.0}}
            )
            snapshot = queue.result(job_id, timeout=60)
        assert snapshot["state"] == "failed"
        assert snapshot["result"] is None
        assert snapshot["error"]
        assert "Error" in snapshot["traceback"]

    def test_unknown_job_id(self):
        queue = JobQueue(workers=1)
        with pytest.raises(ServiceError, match="unknown job id"):
            queue.status("job-999999")
        with pytest.raises(ServiceError, match="unknown job id"):
            queue.result("job-999999", timeout=1)

    def test_result_timeout(self):
        queue = JobQueue(workers=1)  # never started: job stays queued
        job_id = queue.submit({"source": "ham3"})
        with pytest.raises(ServiceError, match="still queued"):
            queue.result(job_id, timeout=0.05)

    def test_priority_beats_fifo(self):
        _RecordingBackend.delay = 0.2
        with JobQueue(workers=1) as queue:
            blocker = queue.submit(
                {"source": "ham3", "backend": "svc-recorder"}
            )
            # Wait until the blocker occupies the single worker, then
            # race a low-priority submission against a high-priority one.
            deadline = time.monotonic() + 10
            while queue.status(blocker)["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            low = queue.submit(
                {"source": "8bitadder", "backend": "svc-recorder"},
                priority=0,
            )
            high = queue.submit(
                {"source": "ham15", "backend": "svc-recorder"}, priority=5
            )
            queue.result(low, timeout=60)
            queue.result(high, timeout=60)
        assert _RecordingBackend.calls == ["ham3", "ham15", "8bitadder"]

    def test_concurrent_identical_submits_coalesce_to_one_computation(self):
        _RecordingBackend.delay = 0.4
        spec = {"source": "ham3", "backend": "svc-recorder"}
        job_ids: list[str] = []
        with JobQueue(workers=4) as queue:
            def submit():
                job_ids.append(queue.submit(spec))

            threads = [threading.Thread(target=submit) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = queue.result(job_ids[0], timeout=60)
        assert len(set(job_ids)) == 1, "identical requests share one job"
        assert snapshot["submits"] == 8
        assert snapshot["state"] == "done"
        assert len(_RecordingBackend.calls) == 1, (
            "exactly one backend computation for N identical submits"
        )

    def test_coalesced_submit_escalates_priority(self):
        _RecordingBackend.delay = 0.2
        with JobQueue(workers=1) as queue:
            blocker = queue.submit(
                {"source": "ham3", "backend": "svc-recorder"}
            )
            deadline = time.monotonic() + 10
            while queue.status(blocker)["state"] == "queued":
                assert time.monotonic() < deadline
                time.sleep(0.005)
            ahead = queue.submit(
                {"source": "8bitadder", "backend": "svc-recorder"},
                priority=3,
            )
            slow = queue.submit(
                {"source": "ham15", "backend": "svc-recorder"}, priority=0
            )
            # The duplicate submit arrives urgent: the queued ham15 job
            # must jump ahead of the priority-3 job.
            resubmitted = queue.submit(
                {"source": "ham15", "backend": "svc-recorder"}, priority=9
            )
            assert resubmitted == slow
            assert queue.status(slow)["priority"] == 9
            queue.result(ahead, timeout=60)
            queue.result(slow, timeout=60)
        assert _RecordingBackend.calls == ["ham3", "ham15", "8bitadder"]

    def test_terminal_records_are_pruned_past_cap(self):
        with JobQueue(workers=1, max_records=2) as queue:
            ids = [
                queue.submit({"source": source})
                for source in ("ham3", "ham15", "8bitadder")
            ]
            for job_id in ids:
                try:
                    queue.result(job_id, timeout=60)
                except ServiceError:
                    pass  # oldest records may already be pruned
            deadline = time.monotonic() + 10
            while len(queue.jobs()) > 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert len(queue.jobs()) <= 2

    def test_pruning_drops_oldest_terminal_and_keeps_live_head(self):
        _GatedBackend.gate.clear()
        with JobQueue(workers=2, max_records=2) as queue:
            try:
                blocked = queue.submit(
                    {"source": "ham3", "backend": "svc-gated"}
                )
                deadline = time.monotonic() + 10
                while queue.status(blocked)["state"] == "queued":
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                for source in ("ham15", "8bitadder", "ham3"):
                    job_id = queue.submit(
                        {"source": source, "backend": "svc-recorder"}
                    )
                    queue.result(job_id, timeout=60)
                    # The live head is older than every terminal record,
                    # yet only terminal records are ever pruned.
                    assert [job["id"] for job in queue.jobs()] == [
                        blocked, job_id
                    ]
                assert queue.status(blocked)["state"] == "running"
            finally:
                _GatedBackend.gate.set()
            queue.result(blocked, timeout=60)

    def test_terminal_jobs_stop_coalescing(self):
        with JobQueue(workers=1) as queue:
            first = queue.submit({"source": "ham3"})
            queue.result(first, timeout=60)
            second = queue.submit({"source": "ham3"})
        assert first != second

    def test_stats_shape(self):
        with JobQueue(workers=1) as queue:
            queue.result(queue.submit({"source": "ham3"}), timeout=60)
            stats = queue.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["workers"] == 1
        assert "estimate" in stats["cache"]
        assert stats["queue_depth"] == 0
        assert stats["draining"] is False
        assert stats["rejected"] == {"full": 0, "draining": 0}


class TestGracefulDrain:
    def test_drain_finishes_queued_work_and_rejects_new_submits(self):
        _RecordingBackend.delay = 0.1
        queue = JobQueue(workers=1)
        queue.start()
        ids = [
            queue.submit({"source": source, "backend": "svc-recorder"})
            for source in ("ham3", "ham15", "8bitadder")
        ]
        queue.begin_drain()
        with pytest.raises(QueueDrainingError, match="draining"):
            queue.submit(
                {
                    "source": "ham3",
                    "backend": "svc-recorder",
                    "params": {"width": 14, "height": 14},
                }
            )
        assert queue.drain(timeout=60) is True
        # Every job admitted before the drain ran to completion.
        for job_id in ids:
            assert queue.status(job_id)["state"] == "done"
        assert sorted(_RecordingBackend.calls) == [
            "8bitadder", "ham15", "ham3"
        ]
        stats = queue.stats()
        assert stats["draining"] is True
        assert stats["rejected"]["draining"] == 1

    def test_drain_is_idempotent_and_empty_queue_drains_immediately(self):
        queue = JobQueue(workers=1)
        queue.start()
        assert queue.drain(timeout=10) is True
        assert queue.drain(timeout=10) is True

    def test_drain_without_workers_reports_failure(self):
        queue = JobQueue(workers=1)  # never started
        queue.submit({"source": "ham3"})
        assert queue.drain(timeout=1) is False


class TestBoundedAdmission:
    def test_full_queue_rejects_with_retry_after(self):
        queue = JobQueue(workers=1, max_depth=2)  # never started: jobs wait
        queue.submit({"source": "ham3"})
        queue.submit({"source": "ham15"})
        with pytest.raises(QueueFullError, match="queue is full") as exc:
            queue.submit({"source": "8bitadder"})
        assert exc.value.retry_after > 0
        assert queue.stats()["rejected"]["full"] == 1

    def test_coalesced_submits_are_admitted_when_full(self):
        queue = JobQueue(workers=1, max_depth=1)
        first = queue.submit({"source": "ham3"})
        # The duplicate adds no work, so admission control lets it in.
        assert queue.submit({"source": "ham3"}) == first
        assert queue.stats()["coalesced"] == 1

    def test_depth_frees_up_as_jobs_run(self):
        with JobQueue(workers=1, max_depth=1) as queue:
            job_id = queue.submit({"source": "ham3"})
            queue.result(job_id, timeout=60)
            # The first job is terminal: the backlog slot is free again.
            other = queue.submit(
                {"source": "ham3", "params": {"width": 12, "height": 12}}
            )
            assert queue.result(other, timeout=60)["state"] == "done"

    def test_max_depth_validation(self):
        with pytest.raises(ServiceError, match="max_depth"):
            JobQueue(workers=1, max_depth=0)


@pytest.fixture()
def daemon(tmp_path):
    server = EstimationServer(tmp_path / "leqa.sock", workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.socket_path, timeout=30)
    deadline = time.monotonic() + 10
    while True:
        try:
            client.ping()
            break
        except ServiceError:
            assert time.monotonic() < deadline, "daemon failed to start"
            time.sleep(0.02)
    yield server, client
    try:
        client.shutdown()
    except ServiceError:
        pass
    thread.join(timeout=10)


class TestDaemon:
    def test_submit_status_result_stats(self, daemon):
        _server, client = daemon
        job_id = client.submit(
            {"source": "ham3", "params": {"width": 12, "height": 12}}
        )
        snapshot = client.result(job_id, timeout=60)
        assert snapshot["state"] == "done"
        assert snapshot["result"]["latency_seconds"] > 0
        status = client.status(job_id)
        assert status["state"] == "done"
        stats = client.stats()
        assert stats["jobs"]["done"] >= 1
        assert client.jobs()[0]["id"] == job_id

    def test_protocol_errors_are_reported(self, daemon):
        _server, client = daemon
        with pytest.raises(ServiceError, match="unknown job id"):
            client.status("job-424242")
        with pytest.raises(ServiceError, match="unknown op"):
            client.call({"op": "frobnicate"})
        with pytest.raises(ServiceError, match="neither a registered"):
            client.submit({"source": "no_such_benchmark"})

    def test_malformed_field_types_get_json_errors(self, daemon):
        # Raw socket clients can send anything: the daemon must answer
        # with ok:false, never drop the connection on a TypeError.
        _server, client = daemon
        with pytest.raises(ServiceError, match="malformed request"):
            client.call(
                {"op": "submit", "spec": {"source": "ham3"}, "priority": None}
            )
        with pytest.raises(ServiceError, match="malformed request"):
            client.call(
                {"op": "result", "job_id": "job-000001", "timeout": "soon"}
            )
        with pytest.raises(ServiceError, match="params"):
            client.submit({"source": "ham3", "params": {"width": "abc"}})
        assert client.ping()["ok"]  # the daemon survived all of it

    def test_second_daemon_refuses_live_socket(self, daemon):
        server, _client = daemon
        with pytest.raises(ServiceError, match="already serving"):
            EstimationServer(server.socket_path)

    def test_stats_carries_metrics_snapshot(self, daemon):
        _server, client = daemon
        job_id = client.submit(
            {"source": "ham3", "params": {"width": 12, "height": 12}}
        )
        client.result(job_id, timeout=60)
        stats = client.stats()
        metrics = stats["metrics"]
        # Per-stage latency histograms with percentile summaries.
        stage_hists = metrics["histograms"]["pipeline.stage.seconds"]
        assert any("stage=zones" in key for key in stage_hists)
        sample = next(iter(stage_hists.values()))
        assert sample["count"] >= 1
        assert {"p50", "p90", "p99"} <= set(sample)
        # Per-job end-to-end histogram and queue counters.
        job_hist = metrics["histograms"]["service.job.seconds"]
        assert any("state=done" in key for key in job_hist)
        assert metrics["counters"]["service.submitted"][""] >= 1
        # Cache counters are in the queue payload, one row per stage.
        assert stats["cache"]["zones"]["misses"] >= 1

    def test_trace_tails_recent_spans(self, daemon):
        _server, client = daemon
        job_id = client.submit(
            {"source": "ham3", "params": {"width": 16, "height": 16}}
        )
        client.result(job_id, timeout=60)
        spans = client.trace(limit=200)
        names = {span["name"] for span in spans}
        assert any(name.startswith("pipeline.") for name in names)
        assert all("seconds" in span for span in spans)

    def test_shutdown_drains_inflight_work(self, tmp_path):
        _RecordingBackend.delay = 0.2
        server = EstimationServer(tmp_path / "drain.sock", workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.socket_path, timeout=30)
        deadline = time.monotonic() + 10
        while True:
            try:
                client.ping()
                break
            except ServiceError:
                assert time.monotonic() < deadline
                time.sleep(0.02)
        ids = [
            client.submit({"source": source, "backend": "svc-recorder"})
            for source in ("ham3", "ham15")
        ]
        queue = server.queue
        client.shutdown()
        # A submit racing the shutdown is rejected with the draining
        # status on the wire (the socket may already be closed for a
        # late-enough submit; both outcomes are a refusal).
        with pytest.raises(ServiceError, match="draining|cannot reach"):
            client.submit(
                {
                    "source": "ham3",
                    "backend": "svc-recorder",
                    "params": {"width": 14, "height": 14},
                }
            )
        thread.join(timeout=30)
        assert not thread.is_alive()
        # Every admitted job finished before the daemon exited.
        for job_id in ids:
            assert queue.status(job_id)["state"] == "done"
        assert len(_RecordingBackend.calls) == 2

    def test_daemon_max_depth_rejection_carries_retry_after(self, tmp_path):
        queue = JobQueue(workers=1, max_depth=1)  # not started: jobs wait
        server = EstimationServer(tmp_path / "full.sock", queue=queue)
        accepted = server.dispatch(
            {"op": "submit", "spec": {"source": "ham3"}}
        )
        assert accepted["ok"]
        rejected = server.dispatch(
            {"op": "submit", "spec": {"source": "ham15"}}
        )
        assert rejected["ok"] is False
        assert rejected["rejected"] == "full"
        assert rejected["retry_after"] > 0
        server._server.server_close()
        (tmp_path / "full.sock").unlink(missing_ok=True)


class TestServeSubprocessRoundTrip:
    """The CI smoke path: a real daemon process, real CLI clients."""

    def test_serve_submit_result(self, tmp_path):
        socket_path = tmp_path / "leqa.sock"
        store_path = tmp_path / "store"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--socket", str(socket_path),
                "--workers", "2",
                "--store", str(store_path),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        client = ServiceClient(socket_path, timeout=30)
        try:
            deadline = time.monotonic() + 60
            while True:
                try:
                    client.ping()
                    break
                except ServiceError:
                    assert server.poll() is None, server.communicate()[0]
                    assert time.monotonic() < deadline
                    time.sleep(0.1)
            submitted = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "submit", "ham3",
                    "--socket", str(socket_path),
                    "--wait", "--timeout", "120", "--json",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=180,
            )
            assert submitted.returncode == 0, submitted.stderr
            snapshot = json.loads(submitted.stdout)
            assert snapshot["state"] == "done"
            assert snapshot["result"]["latency_seconds"] > 0
            fetched = subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "result",
                    snapshot["id"],
                    "--socket", str(socket_path), "--json",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert fetched.returncode == 0, fetched.stderr
            assert (
                json.loads(fetched.stdout)["result"]["latency"]
                == snapshot["result"]["latency"]
            )
            stats = client.stats()
            assert stats["store"]["writes"] > 0
        finally:
            try:
                client.shutdown()
            except ServiceError:
                server.kill()
            server.wait(timeout=30)
        assert not socket_path.exists()
