"""CertificationServer + ServiceClient: the networked front-end.

Covers the digest envelope, idempotent submission over HTTP, the
typed error surface (400/404/409), cancellation, the /v1/stats
observability endpoint, and the client's retry machinery under each
injected network fault kind.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.exceptions import ServiceError
from repro.service import (
    CANCELLED,
    CertificationServer,
    CertificationService,
    FaultPlan,
    PENDING,
    SUCCEEDED,
    ServiceClient,
    backoff_delay,
    wait_terminal,
)
from repro.service.client import BACKOFF_CAP
from repro.service.net import envelope, open_envelope

from tests.service.conftest import fast_config, mc_spec


def _client(server: CertificationServer, **overrides) -> ServiceClient:
    knobs = dict(timeout=5.0, max_attempts=4, backoff_base=0.01)
    knobs.update(overrides)
    return ServiceClient(*server.address, **knobs)


@pytest.fixture()
def served(tmp_path):
    service = CertificationService(str(tmp_path / "svc"),
                                   config=fast_config())
    with CertificationServer(service) as server:
        yield service, server, _client(server)


class TestEnvelope:
    def test_roundtrip(self):
        payload = {"fingerprint": "abc", "state": "pending",
                   "nested": {"b": 2, "a": 1}}
        assert open_envelope(envelope(payload)) == payload

    def test_detects_flipped_byte(self):
        blob = envelope({"verdict": {"failures": 3}})
        at = len(blob) // 2
        garbled = blob[:at] + bytes([blob[at] ^ 0x01]) + blob[at + 1:]
        with pytest.raises(ServiceError,
                           match="integrity digest|unreadable"):
            open_envelope(garbled)

    def test_detects_truncation(self):
        blob = envelope({"verdict": {"failures": 3}})
        with pytest.raises(ServiceError, match="unreadable"):
            open_envelope(blob[:len(blob) // 2])

    def test_detects_missing_digest(self):
        blob = json.dumps({"payload": {"x": 1}}).encode("utf-8")
        with pytest.raises(ServiceError, match="unreadable"):
            open_envelope(blob)


class TestSubmissionApi:
    def test_submit_status_result_roundtrip(self, served):
        service, _server, client = served
        spec = mc_spec()
        receipt = client.submit(spec)
        assert receipt["fingerprint"] == spec.fingerprint
        assert receipt["state"] == PENDING
        assert receipt["deduplicated"] is False
        assert client.status(spec.fingerprint)["state"] == PENDING
        assert client.result(spec.fingerprint) is None  # 409 while live
        service.worker("w1").run_until_drained()
        result = client.wait_result(spec.fingerprint, timeout=10.0)
        assert result["state"] == SUCCEEDED
        assert result["verdict"] == service.status(
            spec.fingerprint).verdict
        assert result["verdict"]["kind"] == "monte_carlo"

    def test_double_submit_is_deduplicated(self, served):
        service, _server, client = served
        spec = mc_spec()
        client.submit(spec)
        receipt = client.submit(spec)
        assert receipt["deduplicated"] is True
        assert client.stats.deduplicated_submissions == 1
        assert len(service.queue.jobs()) == 1

    def test_resubmit_after_terminal_serves_cache(self, served):
        service, _server, client = served
        spec = mc_spec()
        client.submit(spec)
        service.worker("w1").run_until_drained()
        receipt = client.submit(spec)
        assert receipt["deduplicated"] is False  # fresh round
        service.worker("w2").run_until_drained()
        result = client.result(spec.fingerprint)
        assert result["meta"]["cache_hit"] is True
        assert result["meta"]["evaluations"] == 0

    def test_progress_events_streamed(self, served):
        service, _server, client = served
        spec = mc_spec()
        client.submit(spec)
        service.worker("w1").run_until_drained()
        events = client.progress(spec.fingerprint)
        assert events
        assert all(event["worker"] == "w1" for event in events)

    def test_unknown_job_is_404(self, served):
        _service, _server, client = served
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.status("f" * 64)

    def test_malformed_submission_is_400(self, served):
        _service, _server, client = served
        status, answer = client._request(
            "POST", "/v1/jobs", {"kind": "nope", "params": {}})
        assert status == 400
        assert "unknown job kind" in answer["error"]

    def test_unroutable_path_is_404(self, served):
        _service, _server, client = served
        status, answer = client._request("GET", "/nope")
        assert status == 404
        status, answer = client._request("GET", "/v1/frobnicate")
        assert status == 404

    def test_health_reports_counts(self, served):
        _service, _server, client = served
        answer = client.health()
        assert answer["ok"] is True
        assert "counts" in answer

    def test_wait_terminal_many(self, served):
        service, _server, client = served
        specs = [mc_spec(seed=s) for s in (1, 2)]
        for spec in specs:
            client.submit(spec)
        service.worker("w1").run_until_drained()
        results = wait_terminal(
            client, [spec.fingerprint for spec in specs],
            timeout=10.0)
        assert all(r["state"] == SUCCEEDED
                   for r in results.values())


class TestCancellation:
    def test_cancel_pending_job(self, served):
        service, _server, client = served
        spec = mc_spec()
        client.submit(spec)
        answer = client.cancel(spec.fingerprint)
        assert answer["state"] == CANCELLED
        status = service.status(spec.fingerprint)
        assert status.terminal
        # A cancelled job is never claimable.
        assert service.worker("w1").run_once() is None
        assert service.queue.drained

    def test_cancel_is_idempotent(self, served):
        _service, _server, client = served
        spec = mc_spec()
        client.submit(spec)
        client.cancel(spec.fingerprint)
        answer = client.cancel(spec.fingerprint)
        assert answer["state"] == CANCELLED

    def test_cancel_terminal_job_is_409(self, served):
        service, _server, client = served
        spec = mc_spec()
        client.submit(spec)
        service.worker("w1").run_until_drained()
        with pytest.raises(ServiceError, match="HTTP 409"):
            client.cancel(spec.fingerprint)

    def test_cancel_unknown_job_is_404(self, served):
        _service, _server, client = served
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.cancel("e" * 64)


class TestClientRetries:
    """Each network fault kind, injected at an exact coordinate."""

    def _served_with(self, tmp_path, plan: FaultPlan):
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config(),
                                       chaos=plan)
        server = CertificationServer(service)
        server.start()
        return service, server

    def test_drop_is_retried(self, tmp_path):
        plan = FaultPlan().add("net", "health", 0, "drop")
        _service, server = self._served_with(tmp_path, plan)
        try:
            client = _client(server, timeout=1.0)
            assert client.health()["ok"] is True
            assert client.stats.network_faults == 1
            assert client.stats.retries == 1
            assert plan.fired == 1
        finally:
            server.close()

    def test_garble_is_never_believed(self, tmp_path):
        plan = FaultPlan().add("net", "health", 0, "garble")
        _service, server = self._served_with(tmp_path, plan)
        try:
            client = _client(server)
            assert client.health()["ok"] is True
            assert client.stats.garbled_responses == 1
            assert client.stats.retries == 1
        finally:
            server.close()

    def test_disconnect_midflight_is_retried(self, tmp_path):
        plan = FaultPlan().add("net", "health", 0, "disconnect")
        _service, server = self._served_with(tmp_path, plan)
        try:
            client = _client(server)
            assert client.health()["ok"] is True
            assert client.stats.network_faults == 1
        finally:
            server.close()

    def test_delay_beyond_timeout_is_retried(self, tmp_path):
        plan = FaultPlan().add("net", "health", 0, "delay",
                                  seconds=1.0)
        _service, server = self._served_with(tmp_path, plan)
        try:
            client = _client(server, timeout=0.2)
            assert client.health()["ok"] is True
            assert client.stats.network_faults >= 1
        finally:
            server.close()

    def test_duplicate_submit_enqueues_once(self, tmp_path):
        plan = FaultPlan().add("net", "submit", 0, "duplicate")
        service, server = self._served_with(tmp_path, plan)
        try:
            client = _client(server)
            receipt = client.submit(mc_spec())
            # The client sees the duplicate's (second) outcome, which
            # the content-addressed queue deduplicated.
            assert receipt["deduplicated"] is True
            assert len(service.queue.jobs()) == 1
            assert service.queue.event_counts()["submit"] == 1
        finally:
            server.close()

    def test_exhaustion_raises_typed_error(self, tmp_path):
        plan = (FaultPlan().add("net", "health", 0, "drop")
                .add("net", "health", 1, "drop"))
        _service, server = self._served_with(tmp_path, plan)
        try:
            client = _client(server, timeout=0.5, max_attempts=2)
            with pytest.raises(ServiceError,
                               match="failed after 2 attempts"):
                client.health()
            assert client.stats.fault_log
        finally:
            server.close()

    def test_backoff_schedule_is_deterministic(self, tmp_path):
        plan = FaultPlan().add("net", "health", 0, "drop")
        _service, server = self._served_with(tmp_path, plan)
        try:
            client = _client(server, timeout=1.0)
            client.health()
            expected = backoff_delay("GET /v1/health", 1,
                                     client.backoff_base)
            assert client.stats.backoff_seconds \
                == pytest.approx(expected)
        finally:
            server.close()


    def test_backoff_schedule_is_pinned(self, tmp_path):
        # Literals computed with factor 2.0 and jitter 0.1, the rule's
        # constants: a change to the rule shows up here.
        plan = FaultPlan()
        for index in range(3):
            plan.add("net", "health", index, "drop")
        _service, server = self._served_with(tmp_path, plan)
        slept = []
        try:
            client = ServiceClient(*server.address, timeout=1.0,
                                   max_attempts=4, backoff_base=0.01,
                                   sleep=slept.append)
            client.health()
        finally:
            server.close()
        assert slept == [0.01028116497262911, 0.02101018415658679,
                         0.04373789842629986]

class TestServerLifecycle:
    def test_binds_an_ephemeral_port(self, served):
        _service, server, _client_ = served
        assert server.port != 0

    def test_double_start_is_refused(self, served):
        _service, server, _client_ = served
        with pytest.raises(ServiceError, match="already started"):
            server.start()

    def test_close_is_idempotent(self, tmp_path):
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config())
        server = CertificationServer(service)
        server.start()
        server.close()
        server.close()

    def test_server_restart_loses_nothing(self, tmp_path):
        """The server is stateless: every request replays the
        journals, so a replacement server over the same service sees
        every job the dead one accepted."""
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config())
        spec = mc_spec()
        with CertificationServer(service) as first:
            _client(first).submit(spec)
        service.worker("w1").run_until_drained()
        with CertificationServer(service) as second:
            result = _client(second).result(spec.fingerprint)
        assert result["state"] == SUCCEEDED


class TestServiceStats:
    """Satellite: reap/dead-letter counts surfaced in one snapshot."""

    def test_stats_surface_reaps_and_deadletters(self, tmp_path):
        service = CertificationService(
            str(tmp_path / "svc"), config=fast_config(max_attempts=2))
        fp = service.submit(mc_spec())
        # Attempt 1: force-expire the lease out from under the holder.
        assert service.queue.claim("w1") is not None
        service.queue.expire_lease(fp)
        # Attempt 2: a typed failure exhausts the budget; dead-letter.
        lease = service.queue.claim("w1")
        assert lease is not None
        service.queue.fail(fp, lease.token, "injected failure")
        stats = service.stats()
        assert stats.reaped_leases == 1
        assert stats.dead_lettered == 1
        assert stats.deadletters == 1
        assert stats.jobs == {"dead": 1}
        assert stats.live_leases == 0
        blob = stats.to_json_dict()
        assert blob["reaped_leases"] == 1
        assert blob["dead_lettered"] == 1
        assert blob["events"]["submit"] == 1
        assert any("dead-lettered" in line
                   for line in stats.summary_lines())
        # The dead-letter *reasons* ride along: fingerprint prefix
        # plus the typed error that exhausted the attempts.
        assert len(stats.deadletter_reasons) == 1
        assert "injected failure" in stats.deadletter_reasons[0]
        assert blob["deadletter_reasons"] == stats.deadletter_reasons
        assert any("injected failure" in line
                   for line in stats.summary_lines())

    def test_stats_endpoint_reports_service_and_net(self, served):
        service, _server, client = served
        spec = mc_spec()
        client.submit(spec)
        service.worker("w1").run_until_drained()
        answer = client.service_stats()
        assert answer["service"]["jobs"] == {"succeeded": 1}
        assert answer["service"]["events"]["complete"] == 1
        assert answer["service"]["cache_entries"] == 1
        assert answer["net"]["requests"]["submit"] == 1
        assert answer["net"]["chaos_fired"] == 0

    def test_stats_count_cache_evictions(self, tmp_path):
        config = fast_config(cache_max_entries=1)
        service = CertificationService(str(tmp_path / "svc"),
                                       config=config)
        for seed in (1, 2):
            service.submit(mc_spec(seed=seed))
        service.worker("w1").run_until_drained()
        stats = service.stats()
        assert stats.cache_entries == 1
        assert stats.cache_evictions == {"lru": 1}


class TestConcurrentClients:
    def test_parallel_submissions_of_same_spec(self, served):
        """Racing duplicate submissions from many threads still
        enqueue exactly one job."""
        service, server, _client_ = served
        spec = mc_spec()
        errors = []

        def hammer():
            try:
                _client(server).submit(spec)
            except ServiceError as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer)
                   for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(service.queue.jobs()) == 1


class TestServiceUnavailable:
    """503 + Retry-After on merge-lock contention, honored client-side."""

    def _drained_sweep(self, tmp_path):
        from repro.service import SweepSpec, submit_sweep

        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config())
        sweep = SweepSpec.create(
            "monte_carlo", code="trivial",
            gadgets=["n"], p_grid=[0.01], seed=5, trials=40,
            chunk_size=20)
        submit_sweep(service, sweep)
        service.worker("w1").run_until_drained()
        return service, sweep

    def test_contended_merge_answers_503_then_recovers(self, tmp_path):
        service, sweep = self._drained_sweep(tmp_path)
        store = service.sweep_store(sweep.fingerprint)
        with CertificationServer(service, merge_lock_timeout=0.05,
                                 busy_retry_after=0.02) as server:
            # Hold the merge journal's advisory lock from this
            # process (flock is per-open-file-description, so the
            # server's own open contends): every attempt gets a 503.
            with store.exclusive(timeout=1.0):
                busy = _client(server, max_attempts=2,
                               backoff_base=5.0)
                with pytest.raises(ServiceError,
                                   match="failed after 2 attempts"):
                    busy.sweep_table(sweep.fingerprint)
                assert busy.stats.unavailable_responses == 2
                # The one retry paced itself by the server's hint,
                # not the (huge) computed backoff.
                assert busy.stats.retry_after_honored == 1
                assert busy.stats.backoff_seconds <= 0.05
            # Lock released: the same request now merges fine and the
            # client's retry machinery rides out a transient 503.
            patient = _client(server, max_attempts=6,
                              backoff_base=0.01)
            table = patient.sweep_table(sweep.fingerprint)
            assert table["complete"] is True
            (cell,) = table["cells"].values()
            assert cell["state"] == SUCCEEDED

    def test_retry_after_hint_is_capped(self, tmp_path):
        service, sweep = self._drained_sweep(tmp_path)
        store = service.sweep_store(sweep.fingerprint)
        slept = []
        with CertificationServer(service, merge_lock_timeout=0.05,
                                 busy_retry_after=60.0) as server:
            with store.exclusive(timeout=1.0):
                client = ServiceClient(
                    *server.address, timeout=5.0, max_attempts=3,
                    backoff_base=0.01, sleep=slept.append)
                with pytest.raises(ServiceError, match="HTTP 503"):
                    client.sweep_table(sweep.fingerprint)
        # A server asking for a 60 s pause does not get to stall the
        # client past its own cap.
        assert slept == [BACKOFF_CAP, BACKOFF_CAP]
        assert client.stats.retry_after_honored == 2


class TestHealthEndpoint:
    def test_health_reports_fleet_load(self, served):
        service, _server, client = served
        idle = client.health()
        assert idle["ok"] is True
        assert idle["queue_depth"] == 0
        assert idle["active_leases"] == 0
        assert idle["workers"] == {}
        assert idle["drained"] is True

        service.submit(mc_spec(seed=91))
        service.submit(mc_spec(seed=92))
        assert client.health()["queue_depth"] == 2
        assert client.health()["drained"] is False

        lease = service.queue.claim("w1")
        assert lease is not None
        busy = client.health()
        assert busy["queue_depth"] == 1
        assert busy["active_leases"] == 1
        assert busy["drained"] is False
