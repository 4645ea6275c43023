"""Worker turns: dispatch, cache hits, partial verdicts, failures."""

from __future__ import annotations

import pytest

from repro.service import (
    CertificationServer,
    CertificationService,
    DEAD,
    FaultPlan,
    HttpTransport,
    JobSpec,
    QueueTransport,
    SUCCEEDED,
    ServiceClient,
    Worker,
    WorkerAuth,
)
from repro.service.jobs import JobSpec as RawJobSpec
from repro.service.worker import _Heartbeat

from tests.service.conftest import fast_config, mc_spec, seq_spec

SECRET = "heartbeat-test-secret"


class TestMonteCarloJobs:
    def test_executes_and_records_verdict(self, service):
        fp = service.submit(mc_spec())
        worker = service.worker("w1")
        assert worker.run_once() == fp
        status = service.status(fp)
        assert status.state == SUCCEEDED
        verdict = status.verdict
        assert verdict["kind"] == "monte_carlo"
        assert verdict["trials"] == 60
        assert 0 <= verdict["failures"] <= 60
        assert "interval" in verdict
        assert status.meta["evaluations"] > 0
        assert status.meta["cache_hit"] is False

    def test_verdict_is_cached(self, service):
        fp = service.submit(mc_spec())
        service.worker("w1").run_once()
        assert service.cache.get(fp) \
            == service.status(fp).verdict

    def test_resubmit_serves_from_cache_zero_evaluations(
            self, service):
        """The acceptance-criteria cache assertion: a repeated
        submission of a completed job must not touch the simulator
        (``meta.evaluations`` — EngineStats for computed runs — is
        exactly 0)."""
        fp = service.submit(mc_spec())
        service.worker("w1").run_once()
        first = service.status(fp)
        assert first.meta["evaluations"] > 0
        service.submit(mc_spec())
        service.worker("w2").run_once()
        second = service.status(fp)
        assert second.state == SUCCEEDED
        assert second.meta["cache_hit"] is True
        assert second.meta["evaluations"] == 0
        assert second.verdict == first.verdict

    def test_progress_streamed_while_running(self, service):
        fp = service.submit(mc_spec())
        service.worker("w1").run_once()
        events = service.queue.progress(fp)
        assert events, "no streamed progress"
        assert all(e["worker"] == "w1" for e in events)


class TestSequentialJobs:
    def test_decided_run_records_claim_verdict(self, service):
        fp = service.submit(seq_spec())
        service.worker("w1").run_once()
        status = service.status(fp)
        assert status.state == SUCCEEDED
        verdict = status.verdict
        assert verdict["kind"] == "sequential_monte_carlo"
        assert verdict["decision"] in ("accept", "reject")
        assert verdict["partial"] is False
        assert verdict["claim"]["interval"]["upper"] <= 1.0

    def test_budget_exhaustion_yields_typed_partial_verdict(
            self, service):
        """Graceful degradation: an undecided run completes with a
        partial verdict carrying the interval so far — not an
        exception, not a dead letter."""
        spec = seq_spec(p=0.05, p0=0.045, p1=0.055, max_trials=80,
                        batch_size=40)
        fp = service.submit(spec)
        service.worker("w1").run_once()
        status = service.status(fp)
        assert status.state == SUCCEEDED
        verdict = status.verdict
        assert verdict["decision"] == "undecided"
        assert verdict["partial"] is True
        interval = verdict["claim"]["interval"]
        assert 0.0 <= interval["lower"] <= interval["upper"] <= 1.0
        assert verdict["trials"] == 80

    def test_streams_interval_per_batch(self, service):
        fp = service.submit(seq_spec(p=0.05, p0=0.045, p1=0.055,
                                     max_trials=120, batch_size=40))
        service.worker("w1").run_once()
        events = service.queue.progress(fp)
        assert len(events) == 3
        assert [e["batch"] for e in events] == [0, 1, 2]
        assert all(e["interval"]["upper"] >= e["interval"]["lower"]
                   for e in events)
        assert events[-1]["trials"] == 120


class TestStressJobs:
    def test_stress_row_job(self, service):
        spec = JobSpec.create("stress_certify", code="trivial",
                              p=0.01, trials=30, seed=5,
                              gadgets=["n"],
                              include_structural=False)
        fp = service.submit(spec)
        service.worker("w1").run_once()
        status = service.status(fp)
        assert status.state == SUCCEEDED
        assert status.verdict["kind"] == "stress_certify"
        assert "certified" in status.verdict
        assert status.verdict["report"]["verdicts"]


class TestFailurePaths:
    def test_unhandled_kind_dead_letters(self, service):
        # bypass JobSpec.create's validation to simulate a spec from
        # a newer writer this worker has no handler for
        spec = RawJobSpec(kind="from_the_future", params=())
        fp = service.queue.submit(spec)
        service.worker("w1").run_until_drained(timeout=30.0)
        status = service.status(fp)
        assert status.state == DEAD
        assert "from_the_future" in status.error \
            or "handler" in status.error
        assert service.queue.deadletters()

    def test_bad_params_retry_then_dead_letter(self, service):
        spec = JobSpec.create("monte_carlo", code="no_such_code",
                              gadget="n", p=0.01, trials=10, seed=1)
        fp = service.submit(spec)
        service.worker("w1").run_until_drained(timeout=30.0)
        status = service.status(fp)
        assert status.state == DEAD
        assert status.attempt == service.config.max_attempts
        assert "no_such_code" in status.error

    def test_expire_fault_needs_a_queue_transport(self, service,
                                                  tmp_path):
        # Over HTTP the worker cannot reach the queue to expire a
        # lease; the plan is refused up front instead of the fault
        # silently turning into a typed job failure.
        expire = FaultPlan().add("job", "batch:0", 0, "expire")
        http = HttpTransport(ServiceClient("127.0.0.1", 9),
                             str(tmp_path / "scratch"))
        with pytest.raises(ValueError, match="expire"):
            Worker(http, chaos=expire)
        Worker(http, chaos=FaultPlan().add("job", "start", 0, "fail"))
        Worker(QueueTransport(service.queue, service.cache),
               chaos=expire)


class TestHeartbeatShutdown:
    """A heartbeat thread that outlives its worker turn
    must never renew (and so resurrect) a lease the queue already
    released — the StaleLeaseError path, under slow teardown.

    Runs over the in-process transport; the subclass below runs the
    same tests over HTTP by overriding the ``transport_for`` fixture.
    """

    @staticmethod
    def _service(tmp_path, **overrides):
        knobs = dict(lease_ttl=0.5, job_deadline=30.0,
                     max_attempts=3, backoff_base=0.01)
        knobs.update(overrides)
        return CertificationService(str(tmp_path / "svc"),
                                    config=fast_config(**knobs))

    @pytest.fixture()
    def transport_for(self, tmp_path):
        """``open(**queue_knobs) -> (queue, transport)``."""
        def open_(**overrides):
            service = self._service(tmp_path, **overrides)
            return service.queue, QueueTransport(service.queue,
                                                 service.cache)
        return open_

    def test_stop_halts_renewal(self, transport_for):
        import time

        queue, transport = transport_for()
        queue.submit(mc_spec())
        lease = queue.claim("w1")
        heartbeat = _Heartbeat(transport, lease, interval=0.05)
        heartbeat.start()
        time.sleep(0.2)  # several renewals
        heartbeat.stop()
        heartbeat.join(timeout=2.0)
        assert not heartbeat.is_alive()
        assert not heartbeat.stale.is_set()
        (live,) = queue.leases()
        frozen = float(live["expires_at"])
        time.sleep(0.2)  # no thread left to renew
        (live,) = queue.leases()
        assert float(live["expires_at"]) == frozen

    def test_heartbeat_after_completion_goes_stale(self,
                                                   transport_for):
        """The regression: complete() releases the lease while the
        heartbeat thread is still running.  The next renewal must be
        refused as stale — not recreate the lease file — and the
        recorded verdict must stand untouched."""
        import os
        import time

        from repro.service import SUCCEEDED as DONE

        queue, transport = transport_for()
        fp = queue.submit(mc_spec())
        lease = queue.claim("w1")
        heartbeat = _Heartbeat(transport, lease, interval=0.05)
        heartbeat.start()
        time.sleep(0.12)  # let at least one renewal land
        queue.complete(fp, lease.token, {"ok": True})
        heartbeat.join(timeout=2.0)  # no stop(): slow teardown
        assert not heartbeat.is_alive()
        assert heartbeat.stale.is_set()
        assert queue.leases() == []
        assert not os.path.exists(queue._lease_path(fp))
        status = queue.status(fp)
        assert status.state == DONE
        assert status.verdict == {"ok": True}

    def test_heartbeat_never_renews_a_reissued_lease(self,
                                                     transport_for):
        """After a forced expiry and re-claim, the *old* holder's
        heartbeat must go stale instead of stealing the new worker's
        lease back."""
        import time

        queue, transport = transport_for()
        fp = queue.submit(mc_spec())
        old = queue.claim("w1")
        queue.expire_lease(fp)
        new = queue.claim("w2")
        assert new is not None and new.token != old.token
        heartbeat = _Heartbeat(transport, old, interval=0.05)
        heartbeat.start()
        heartbeat.join(timeout=2.0)
        assert heartbeat.stale.is_set()
        (live,) = queue.leases()
        assert live["token"] == new.token
        assert live["worker"] == "w2"

    def test_renewal_stops_at_the_hard_deadline(self, transport_for):
        """A worker that cannot finish by the job deadline must lose
        its lease (stop renewing), not keep it alive forever."""
        import time

        queue, transport = transport_for(lease_ttl=0.2,
                                         job_deadline=0.3)
        fp = queue.submit(mc_spec())
        lease = queue.claim("w1")
        heartbeat = _Heartbeat(transport, lease, interval=0.05)
        heartbeat.start()
        time.sleep(0.6)
        assert not heartbeat.is_alive()  # exited at the deadline
        assert queue.reap_expired() == [fp]


class TestHeartbeatShutdownOverHttp(TestHeartbeatShutdown):
    """The same heartbeat tests, renewing over ``/v1/work/heartbeat``."""

    @pytest.fixture()
    def transport_for(self, tmp_path):
        servers = []

        def open_(**overrides):
            service = self._service(tmp_path, **overrides)
            server = CertificationServer(service, worker_secret=SECRET)
            servers.append(server)
            client = ServiceClient(
                *server.start(), timeout=5.0, max_attempts=2,
                backoff_base=0.01,
                auth=WorkerAuth(secret=SECRET, worker="w1"))
            return service.queue, HttpTransport(
                client, str(tmp_path / "scratch"))

        yield open_
        for server in servers:
            server.close()
