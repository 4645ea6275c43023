"""The remote worker fleet: auth, wire leases, idempotent completes.

Covers the HMAC shared-secret auth layer (typed 401/403 for
missing/garbled/forged tokens), the ``/v1/work/*`` lease lifecycle
over HTTP — late writes from partitioned or zombie holders refused
exactly as in-process, retried completes absorbed idempotently — and
the acceptance-criteria soak: two remote workers plus one SIGKILLed
mid-lease, with injected partitions and duplicated completes, drain
a 12-cell sweep bit-identical to the in-process reference with every
verdict completed exactly once.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import multiprocessing

import pytest

from repro.exceptions import (
    AuthenticationError,
    AuthorizationError,
    StaleLeaseError,
)
from repro.service import (
    CertificationServer,
    CertificationService,
    DEAD,
    FaultPlan,
    RemoteWorker,
    SUCCEEDED,
    ServiceClient,
    SweepSpec,
    WorkerAuth,
    merge_sweep,
    run_sweep_inprocess,
    submit_sweep,
)
from repro.service.auth import (
    NONCE_HEADER,
    SIGNATURE_HEADER,
    WORKER_HEADER,
    sign_request,
    verify_request,
)

from tests.service.conftest import fast_config, mc_spec, \
    needs_fork, seq_spec

SECRET = "fleet-secret-for-tests"


def _served(tmp_path, *, net=None, secret=SECRET, **overrides):
    knobs = dict(workers=0, lease_ttl=1.0, job_deadline=60.0)
    knobs.update(overrides)
    service = CertificationService(str(tmp_path / "svc"),
                                   config=fast_config(**knobs),
                                   chaos=net)
    server = CertificationServer(service, worker_secret=secret)
    return service, server


def _remote(server, tmp_path, name="r1", **overrides):
    knobs = dict(timeout=5.0, max_attempts=6, backoff_base=0.01,
                 heartbeat_interval=0.02)
    knobs.update(overrides)
    return RemoteWorker(
        *server.address, secret=SECRET, name=name,
        scratch=str(tmp_path / f"scratch-{name}"), **knobs)


def _authed(server, worker="probe", **overrides):
    knobs = dict(timeout=5.0, max_attempts=4, backoff_base=0.01)
    knobs.update(overrides)
    return ServiceClient(*server.address,
                         auth=WorkerAuth(secret=SECRET,
                                         worker=worker),
                         **knobs)


class TestAuthUnit:
    def test_sign_verify_roundtrip(self):
        auth = WorkerAuth(secret=SECRET, worker="r1")
        body = b'{"worker": "r1"}'
        headers = {k.lower(): v for k, v in
                   auth.headers("POST", "/v1/work/claim",
                                body).items()}
        assert verify_request(SECRET, "POST", "/v1/work/claim",
                              headers, body) == "r1"

    def test_missing_headers_are_unauthenticated(self):
        with pytest.raises(AuthenticationError, match="missing"):
            verify_request(SECRET, "POST", "/v1/work/claim", {}, b"")

    def test_garbled_token_is_unauthenticated(self):
        headers = {WORKER_HEADER: "r1", NONCE_HEADER: "ab12",
                   SIGNATURE_HEADER: "not-hex-at-all"}
        with pytest.raises(AuthenticationError, match="garbled"):
            verify_request(SECRET, "POST", "/v1/work/claim",
                           headers, b"")

    def test_wrong_secret_is_unauthorized(self):
        auth = WorkerAuth(secret="the-wrong-secret", worker="r1")
        headers = {k.lower(): v for k, v in
                   auth.headers("POST", "/v1/work/claim",
                                b"").items()}
        with pytest.raises(AuthorizationError, match="HMAC"):
            verify_request(SECRET, "POST", "/v1/work/claim",
                           headers, b"")

    def test_tampered_body_is_unauthorized(self):
        auth = WorkerAuth(secret=SECRET, worker="r1")
        headers = {k.lower(): v for k, v in
                   auth.headers("POST", "/v1/work/claim",
                                b'{"a": 1}').items()}
        with pytest.raises(AuthorizationError):
            verify_request(SECRET, "POST", "/v1/work/claim",
                           headers, b'{"a": 2}')

    def test_signature_binds_method_and_path(self):
        signature = sign_request(SECRET, "POST", "/v1/work/claim",
                                 "r1", "ff", b"")
        assert signature != sign_request(
            SECRET, "POST", "/v1/work/complete", "r1", "ff", b"")
        assert signature != sign_request(
            SECRET, "GET", "/v1/work/claim", "r1", "ff", b"")


class TestWireAuth:
    def test_unauthenticated_claim_is_401(self, tmp_path):
        _service, server = _served(tmp_path)
        with server:
            bare = ServiceClient(*server.address, timeout=2.0,
                                 max_attempts=1)
            with pytest.raises(AuthenticationError,
                               match="unauthenticated"):
                bare.work_claim()

    def test_forged_secret_claim_is_403(self, tmp_path):
        _service, server = _served(tmp_path)
        with server:
            forged = ServiceClient(
                *server.address, timeout=2.0, max_attempts=1,
                auth=WorkerAuth(secret="forged", worker="evil"))
            with pytest.raises(AuthorizationError,
                               match="fails HMAC"):
                forged.work_claim()

    def test_server_without_secret_disables_fleet(self, tmp_path):
        _service, server = _served(tmp_path, secret=None)
        with server:
            client = _authed(server, max_attempts=1)
            with pytest.raises(AuthenticationError,
                               match="no fleet secret"):
                client.work_claim()

    def test_reads_need_no_auth(self, tmp_path):
        _service, server = _served(tmp_path)
        with server:
            bare = ServiceClient(*server.address, timeout=2.0)
            assert bare.health()["ok"] is True


class TestRemoteWorker:
    def test_roundtrip_matches_inprocess(self, tmp_path):
        spec = mc_spec(seed=31)
        # Undisturbed in-process reference for the same spec.
        reference = CertificationService(
            str(tmp_path / "ref"), config=fast_config())
        reference.submit(spec)
        reference.worker("ref").run_until_drained()
        expected = reference.status(spec.fingerprint).verdict

        service, server = _served(tmp_path)
        with server:
            service.submit(spec)
            worker = _remote(server, tmp_path)
            turns = worker.run_until_drained(timeout=60.0)
        assert turns == 1
        status = service.status(spec.fingerprint)
        assert status.state == SUCCEEDED
        assert status.verdict == expected
        assert status.meta["worker"] == "r1"
        assert status.meta["cache_hit"] is False

    def test_sweep_drained_remotely_matches_inprocess(self, tmp_path):
        # A whole sweep over the wire: the HTTP-merged table is
        # complete, bit-identical to the in-process drain, and a
        # re-merge answers the journaled table.
        sweep = SweepSpec.create(
            "monte_carlo", code="trivial", gadgets=("n", "recovery"),
            p_grid=(0.01, 0.03), seed=53, trials=30, chunk_size=10)
        reference = run_sweep_inprocess(sweep, str(tmp_path / "ref"))
        service, server = _served(tmp_path)
        with server:
            submit_sweep(service, sweep)
            _remote(server, tmp_path).run_until_drained(timeout=60.0)
            client = ServiceClient(*server.address, timeout=5.0)
            table = client.wait_sweep(sweep.fingerprint, timeout=60.0)
        assert table["complete"] is True
        assert table["counts"] == {SUCCEEDED: 4}
        assert table["cells"] == reference["cells"]
        assert merge_sweep(service, sweep) == table

    def test_sequential_job_streams_progress_over_wire(
            self, tmp_path):
        spec = seq_spec(seed=41)
        service, server = _served(tmp_path)
        with server:
            service.submit(spec)
            _remote(server, tmp_path).run_until_drained(timeout=60.0)
        status = service.status(spec.fingerprint)
        assert status.state == SUCCEEDED
        # Per-batch progress was streamed over the wire into the
        # job journal, token-checked, where watch/status read it.
        events = service.queue.progress(spec.fingerprint)
        assert len(events) >= 1
        assert events[0]["worker"] == "r1"
        assert "failures" in events[0]

    def test_resubmission_served_from_cache(self, tmp_path):
        spec = mc_spec(seed=32)
        service, server = _served(tmp_path)
        with server:
            service.submit(spec)
            _remote(server, tmp_path).run_until_drained(timeout=60.0)
            first = service.status(spec.fingerprint).verdict
            service.submit(spec)  # terminal resubmit: fresh round
            worker = _remote(server, tmp_path, name="r2")
            worker.run_until_drained(timeout=60.0)
        status = service.status(spec.fingerprint)
        assert status.verdict == first
        assert status.meta["cache_hit"] is True
        assert status.meta["evaluations"] == 0
        assert worker.cache_hits == 1

    def test_duplicate_complete_absorbed_idempotently(
            self, tmp_path):
        spec = mc_spec(seed=33)
        service, server = _served(tmp_path)
        with server:
            service.submit(spec)
            client = _authed(server, worker="z1")
            lease = client.work_claim()["lease"]
            verdict = {"kind": "probe", "answer": 42}
            first = client.work_complete(lease["fingerprint"],
                                         lease["token"], verdict)
            assert first["recorded"] is True
            assert first["duplicate"] is False
            # Blind resubmission after an ambiguous fault: same
            # token, same content-addressed verdict — absorbed.
            again = client.work_complete(lease["fingerprint"],
                                         lease["token"], verdict)
            assert again["recorded"] is False
            assert again["duplicate"] is True
        events = service.queue.event_counts()
        assert events["complete"] == 1

    def test_late_writes_from_zombie_refused(self, tmp_path):
        spec = mc_spec(seed=34)
        service, server = _served(tmp_path)
        with server:
            service.submit(spec)
            client = _authed(server, worker="z1", max_attempts=1)
            lease = client.work_claim()["lease"]
            fingerprint, token = lease["fingerprint"], lease["token"]
            client.work_progress(fingerprint, token, {"at": 0})
            # The lease moves on underneath the (zombie) holder...
            service.queue.expire_lease(fingerprint)
            # ...and every late write is refused server-side with
            # the same typed error the in-process path raises.
            with pytest.raises(StaleLeaseError):
                client.work_heartbeat(fingerprint, token)
            with pytest.raises(StaleLeaseError):
                client.work_progress(fingerprint, token, {"at": 1})
            with pytest.raises(StaleLeaseError):
                client.work_complete(fingerprint, token,
                                     {"kind": "late"})
            with pytest.raises(StaleLeaseError):
                client.work_fail(fingerprint, token, "late fail")

    def test_heartbeat_past_deadline_is_typed_stale(self, tmp_path):
        # A renewal refused at the job's hard deadline must reach a
        # remote holder as StaleLeaseError (abandon the attempt), the
        # same type the in-process queue raises — not an untyped
        # ServiceError a heartbeat loop would retry.
        service, server = _served(tmp_path, job_deadline=0.3)
        with server:
            service.submit(mc_spec(seed=37))
            client = _authed(server, worker="z1", max_attempts=1)
            lease = client.work_claim()["lease"]
            time.sleep(0.5)
            with pytest.raises(StaleLeaseError, match="deadline"):
                client.work_heartbeat(lease["fingerprint"],
                                      lease["token"])

    def test_failed_attempt_reported_over_wire(self, tmp_path):
        # An unknown gadget makes execution raise; the remote worker
        # must report it through /v1/work/fail (retry then
        # dead-letter), never crash its own loop.
        spec = mc_spec(seed=35, gadget="no-such-gadget")
        service, server = _served(tmp_path, max_attempts=2)
        with server:
            service.submit(spec)
            worker = _remote(server, tmp_path)
            worker.run_until_drained(timeout=60.0)
        assert worker.failures == 2
        status = service.status(spec.fingerprint)
        assert status.state == DEAD
        assert len(service.queue.deadletters()) == 1

    def test_heartbeat_delay_within_grace_keeps_lease(
            self, tmp_path):
        # The zombie coordinate: a heartbeat held server-side past
        # the lease expiry.  With clock_skew_grace, a competing
        # claim must NOT reap the live holder in the window between
        # expiry and the late-landing renewal.
        spec = mc_spec(seed=36)
        net = FaultPlan().add("fleet", "z1/work_heartbeat", 0, "delay",
                              seconds=0.3)
        service, server = _served(tmp_path, net=net, lease_ttl=0.2,
                                  clock_skew_grace=2.0)
        with server:
            service.submit(spec)
            holder = _authed(server, worker="z1")
            rival = _authed(server, worker="z2")
            lease = holder.work_claim()["lease"]
            fingerprint, token = lease["fingerprint"], lease["token"]
            time.sleep(0.25)  # past the nominal expiry
            renewed = {}

            def _renew():
                renewed["expires_at"] = holder.work_heartbeat(
                    fingerprint, token)

            thread = threading.Thread(target=_renew, daemon=True)
            thread.start()
            time.sleep(0.1)  # inside the 0.3s server-side delay
            # The rival's claim reaps expired leases first — grace
            # keeps this one alive, so there is nothing to claim.
            assert rival.work_claim()["lease"] is None
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert renewed["expires_at"] > time.time()
            # The original holder still completes exactly once.
            receipt = holder.work_complete(fingerprint, token,
                                           {"kind": "probe"})
            assert receipt["recorded"] is True
        assert net.fired == 1


def _claim_and_hang(host, port, secret):
    """Child-process body: claim one lease, then die by SIGKILL."""
    client = ServiceClient(
        host, port, timeout=5.0, max_attempts=6, backoff_base=0.01,
        auth=WorkerAuth(secret=secret, worker="victim"))
    client.work_claim()
    time.sleep(120.0)


def soak_sweep(seed: int = 47) -> SweepSpec:
    """2 gadgets x 6 noise rates = 12 Monte-Carlo cells."""
    return SweepSpec.create(
        "monte_carlo", code="trivial", gadgets=("n", "recovery"),
        p_grid=(0.005, 0.01, 0.02, 0.03, 0.05, 0.08), seed=seed,
        trials=30, chunk_size=10)


@needs_fork
class TestRemoteFleetSoak:
    """The acceptance-criteria soak: a 12-cell sweep drained by two
    remote workers plus one SIGKILLed mid-lease, through injected
    partitions and duplicated completes, bit-identical to the
    in-process reference with every verdict completed exactly once.
    """

    def test_partition_chaos_soak(self, tmp_path):
        sweep = soak_sweep()
        reference = run_sweep_inprocess(sweep, str(tmp_path / "ref"))
        assert reference["counts"] == {SUCCEEDED: 12}

        net = (
            FaultPlan()
            # Partition r1 for two consecutive authenticated
            # requests (the retry is partitioned too).
            .add("fleet", "r1", 2, "partition", count=2)
            # Process the first terminal write twice: the
            # at-least-once duplicate the queue must absorb.
            .add("net", "work_complete", 0, "duplicate")
        )
        service, server = _served(
            tmp_path, net=net, lease_ttl=0.5, max_attempts=4,
            clock_skew_grace=0.25)
        with server:
            submit_sweep(service, sweep)

            # One worker SIGKILLed mid-lease: claim, hang, die.
            context = multiprocessing.get_context("fork")
            victim = context.Process(
                target=_claim_and_hang,
                args=(*server.address, SECRET), daemon=True)
            victim.start()
            deadline = time.monotonic() + 15.0
            while not any(lease.get("worker") == "victim"
                          for lease in service.queue.leases()):
                assert time.monotonic() < deadline, \
                    "victim never claimed a lease"
                time.sleep(0.02)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=5.0)

            # Two live remote workers drain the rest over HTTP.
            workers = [_remote(server, tmp_path, name)
                       for name in ("r1", "r2")]
            threads = [
                threading.Thread(target=worker.run_until_drained,
                                 kwargs={"timeout": 120.0},
                                 daemon=True)
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            client = ServiceClient(*server.address, timeout=5.0,
                                   max_attempts=6,
                                   backoff_base=0.02)
            table = client.wait_sweep(sweep.fingerprint,
                                      timeout=120.0)
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()

            # The headline assertion: bit-identical to the
            # undisturbed in-process reference.
            assert table["complete"] is True
            assert table["partial"] is False
            assert table["cells"] == reference["cells"]
            assert table["counts"] == reference["counts"]

            # Exactly-once completion: 12 jobs, 12 complete events,
            # and the journal shows no fingerprint completed twice.
            events = service.queue.event_counts()
            assert events["complete"] == 12
            assert events["expire"] >= 1  # the victim's lease
            records = service.queue.journal.load_records(
                "events", tolerate_tail=True)
            completed = [record["fingerprint"] for record in records
                         if record.get("event") == "complete"]
            assert len(completed) == 12
            assert len(set(completed)) == 12

            # Every injected fault actually fired, and the
            # duplicated complete surfaced to exactly one worker as
            # an absorbed duplicate.
            assert net.fired == len(net.faults)
            assert sum(worker.duplicates for worker in workers) == 1
            assert sum(worker.completions for worker in workers) \
                == 12

            # Fleet observability: the health and stats surfaces
            # saw all three workers.
            health = client.health()
            assert health["drained"] is True
            assert health["queue_depth"] == 0
            assert health["active_leases"] == 0
            assert set(health["workers"]) \
                >= {"r1", "r2", "victim"}
            stats = client.service_stats()
            assert stats["fleet"]["workers"]["r1"] >= 1
            assert any(key.startswith("r2:work_complete")
                       for key in stats["fleet"]["worker_ops"])
