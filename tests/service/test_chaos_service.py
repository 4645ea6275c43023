"""Service-level chaos: every scenario ends correct-or-typed-error.

Each test injects one fault class from the tentpole list — kill a
worker mid-lease, hang a worker until its lease expires, expire a
lease under a live worker, truncate the queue journal, garble a cache
entry — and certifies the recovered verdict is *bit-identical* to an
undisturbed run of the same spec.
"""

from __future__ import annotations

import time

import pytest

from repro.service import (
    CertificationServer,
    CertificationService,
    FaultPlan,
    JobSpec,
    SUCCEEDED,
    ServiceClient,
    garble_cache_entry,
    truncate_queue_journal,
)

from tests.service.conftest import fast_config, mc_spec, needs_fork, \
    seq_spec


def _undisturbed_verdict(tmp_path, spec: JobSpec) -> dict:
    service = CertificationService(str(tmp_path / "reference"),
                                   config=fast_config())
    fp = service.submit(spec)
    service.worker("ref").run_until_drained(timeout=120.0)
    status = service.status(fp)
    assert status.state == SUCCEEDED
    return status.verdict


class TestInjectedWorkerFailure:
    def test_fail_then_retry_recovers_identically(self, tmp_path):
        spec = mc_spec()
        reference = _undisturbed_verdict(tmp_path, spec)
        chaos = FaultPlan().add("job", "start", 0, "fail")
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config(),
                                       chaos=chaos)
        fp = service.submit(spec)
        worker = service.worker("w1")
        worker.run_until_drained(timeout=60.0)
        status = service.status(fp)
        assert status.state == SUCCEEDED
        assert status.attempt == 2
        assert "chaos" in status.error or status.error == ""
        assert status.verdict == reference

    def test_persistent_failure_dead_letters(self, tmp_path):
        chaos = FaultPlan()
        for attempt in (1, 2, 3):
            chaos.add("job", "start", 0, "fail", attempt=attempt)
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config(),
                                       chaos=chaos)
        fp = service.submit(mc_spec())
        service.worker("w1").run_until_drained(timeout=60.0)
        status = service.status(fp)
        assert status.state == "dead"
        assert "chaos" in status.error
        assert service.queue.deadletters()


class TestExpireUnderLiveWorker:
    def test_live_holder_refused_then_job_recovers(self, tmp_path):
        """The lease is forced away mid-run; the holder's completion
        is refused, the retry serves the (content-addressed) cached
        verdict, and the final verdict matches undisturbed."""
        spec = mc_spec(trials=80)
        reference = _undisturbed_verdict(tmp_path, spec)
        chaos = FaultPlan().add("job", "batch:0", 0, "expire")
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config(),
                                       chaos=chaos)
        fp = service.submit(spec)
        service.worker("w1").run_until_drained(timeout=60.0)
        status = service.status(fp)
        assert status.state == SUCCEEDED
        assert status.attempt == 2
        assert status.verdict == reference
        events = service.queue.journal.load_records("events")
        completes = [e for e in events
                     if e["event"] == "complete"]
        assert len(completes) == 1


class TestComposedFaults:
    def test_faults_at_one_coordinate_all_fire(self, tmp_path):
        """Two faults on one job coordinate and two on one request
        coordinate: every one fires, and their effects compose."""
        spec = mc_spec()
        reference = _undisturbed_verdict(tmp_path, spec)
        plan = (FaultPlan()
                .add("job", "start", 0, "expire")
                .add("job", "start", 0, "fail")
                .add("net", "health", 0, "delay", seconds=0.1)
                .add("net", "health", 0, "delay", seconds=0.2))
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config(),
                                       chaos=plan)
        with CertificationServer(service) as server:
            client = ServiceClient(*server.address, timeout=5.0)
            started = time.monotonic()
            assert client.health()["ok"] is True
            assert time.monotonic() - started >= 0.3
        fp = service.submit(spec)
        service.worker("w1").run_until_drained(timeout=60.0)
        assert plan.fired == len(plan.faults)
        status = service.status(fp)
        assert status.state == SUCCEEDED
        assert status.attempt == 2
        assert status.verdict == reference


class TestJournalTruncation:
    def test_truncated_completion_recovers_from_cache(self, tmp_path):
        """Tear the final journal record after a completion: the
        re-derived queue re-runs the job, which the ResultCache
        answers with zero simulator evaluations."""
        spec = mc_spec()
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config())
        fp = service.submit(spec)
        service.worker("w1").run_until_drained(timeout=60.0)
        reference = service.status(fp).verdict
        truncate_queue_journal(service.queue)
        service.worker("w2").run_until_drained(timeout=60.0)
        status = service.status(fp)
        assert status.state == SUCCEEDED
        assert status.verdict == reference
        assert status.meta["cache_hit"] is True
        assert status.meta["evaluations"] == 0


class TestCacheGarbling:
    @pytest.mark.parametrize("mode", ["flip", "truncate"])
    def test_garbled_verdict_recomputed_not_served(self, tmp_path,
                                                   mode):
        spec = mc_spec()
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config())
        fp = service.submit(spec)
        service.worker("w1").run_until_drained(timeout=60.0)
        reference = service.status(fp).verdict
        garble_cache_entry(service.cache, fp, mode=mode)
        service.submit(spec)
        service.worker("w2").run_until_drained(timeout=60.0)
        status = service.status(fp)
        assert status.state == SUCCEEDED
        assert status.verdict == reference       # recomputed
        assert status.meta["cache_hit"] is False  # not served
        # the recompute drove the engine (the per-job checkpoint
        # journal may satisfy it without fresh simulator runs — that
        # replay is itself checksummed, so still correct-or-error)
        assert status.meta["engine"] is not None
        assert status.meta["engine"]["requests"] > 0
        assert service.cache.quarantined()
        # and the recompute re-primed the cache
        assert service.cache.get(fp) == reference


@needs_fork
class TestKilledWorker:
    def test_sigkill_mid_lease_resumes_bit_identically(self,
                                                       tmp_path):
        """A worker SIGKILLed mid-job (no cleanup, no finalisers)
        loses its lease; the re-claimed attempt resumes from the
        per-job checkpoint and lands the identical verdict."""
        spec = mc_spec(trials=80)
        reference = _undisturbed_verdict(tmp_path, spec)
        chaos = FaultPlan().add("job", "batch:0", 0, "kill")
        service = CertificationService(
            str(tmp_path / "svc"),
            config=fast_config(workers=1, lease_ttl=0.5,
                               job_deadline=60.0),
            chaos=chaos)
        fp = service.submit(spec)
        outcome = service.run_until_drained(timeout=120.0)
        assert outcome["counts"] == {"succeeded": 1}
        status = service.status(fp)
        assert status.attempt == 2
        assert status.verdict == reference
        engine = status.meta.get("engine") or {}
        assert engine.get("resumed_verdicts", 0) > 0

    def test_sequential_kill_resumes_identically(self, tmp_path):
        spec = seq_spec(p=0.05, p0=0.001, p1=0.03, max_trials=400,
                        batch_size=50, seed=13)
        reference = _undisturbed_verdict(tmp_path, spec)
        chaos = FaultPlan().add("job", "batch:0", 0, "kill")
        service = CertificationService(
            str(tmp_path / "svc"),
            config=fast_config(workers=1, lease_ttl=0.5,
                               job_deadline=60.0),
            chaos=chaos)
        fp = service.submit(spec)
        service.run_until_drained(timeout=120.0)
        status = service.status(fp)
        assert status.state == SUCCEEDED
        assert status.attempt == 2
        assert status.verdict == reference

    def test_hung_worker_killed_and_job_reassigned(self, tmp_path):
        """A worker hangs past its deadline while holding the lease;
        the pool SIGKILLs it (releasing its advisory store lock) and
        the respawned worker finishes the job."""
        spec = mc_spec(trials=80)
        reference = _undisturbed_verdict(tmp_path, spec)
        chaos = FaultPlan().add("job", "batch:0", 0, "hang",
                                seconds=30.0)
        service = CertificationService(
            str(tmp_path / "svc"),
            config=fast_config(workers=1, lease_ttl=0.4,
                               heartbeat_interval=0.1,
                               job_deadline=1.0),
            chaos=chaos)
        fp = service.submit(spec)
        outcome = service.run_until_drained(timeout=120.0)
        assert outcome["counts"] == {"succeeded": 1}
        assert outcome["deadline_kills"] >= 1
        status = service.status(fp)
        assert status.attempt >= 2
        assert status.verdict == reference
