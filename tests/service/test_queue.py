"""JobQueue: journal, leases, retry/backoff, dead-letter, recovery."""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.exceptions import CheckpointError, ReproError, \
    ServiceError, StaleLeaseError
from repro.runtime import checkpoint
from repro.service import (
    CANCELLED,
    CertificationService,
    DEAD,
    JobQueue,
    JobSpec,
    PENDING,
    RUNNING,
    SUCCEEDED,
    backoff_delay,
    truncate_queue_journal,
)

from tests.service.conftest import fast_config, mc_spec


class FakeClock:
    """Deterministic time for lease-expiry tests."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock) -> JobQueue:
    return JobQueue(str(tmp_path / "q"), lease_ttl=10.0,
                    job_deadline=100.0, max_attempts=3,
                    backoff_base=1.0, clock=clock)


def spec(seed: int = 1) -> JobSpec:
    return JobSpec.create("monte_carlo", seed=seed, trials=10,
                          p=0.01)


class TestLifecycle:
    def test_submit_claim_complete(self, queue):
        fp = queue.submit(spec())
        assert queue.status(fp).state == PENDING
        lease = queue.claim("w1")
        assert lease.fingerprint == fp
        assert lease.attempt == 1
        assert queue.status(fp).state == RUNNING
        queue.complete(fp, lease.token, {"answer": 42},
                       meta={"evaluations": 3})
        status = queue.status(fp)
        assert status.state == SUCCEEDED
        assert status.verdict == {"answer": 42}
        assert status.meta["evaluations"] == 3
        assert queue.drained

    def test_submit_is_idempotent_in_flight(self, queue):
        fp = queue.submit(spec())
        assert queue.submit(spec()) == fp
        assert len(queue.jobs()) == 1
        queue.claim("w1")
        assert queue.submit(spec()) == fp
        assert queue.status(fp).state == RUNNING

    def test_resubmit_after_terminal_requeues(self, queue):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        queue.complete(fp, lease.token, {"v": 1})
        queue.submit(spec())
        assert queue.status(fp).state == PENDING

    def test_claim_order_is_submit_order(self, queue):
        first = queue.submit(spec(1))
        second = queue.submit(spec(2))
        assert queue.claim("w").fingerprint == first
        assert queue.claim("w").fingerprint == second

    def test_claim_empty_queue_is_none(self, queue):
        assert queue.claim("w") is None

    def test_running_job_is_not_reclaimable(self, queue):
        queue.submit(spec())
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None


class TestLeases:
    def test_heartbeat_extends(self, queue, clock):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        clock.advance(8.0)
        new_expiry = queue.heartbeat(fp, lease.token)
        assert new_expiry == clock() + queue.lease_ttl

    def test_stale_token_refused(self, queue):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        for action in (
            lambda: queue.heartbeat(fp, "bogus"),
            lambda: queue.complete(fp, "bogus", {}),
            lambda: queue.fail(fp, "bogus", "err"),
        ):
            with pytest.raises(StaleLeaseError):
                action()
        # the rightful holder is unaffected
        queue.complete(fp, lease.token, {"v": 1})

    def test_expired_lease_reaped_and_reclaimed(self, queue, clock):
        fp = queue.submit(spec())
        old = queue.claim("w1")
        clock.advance(queue.lease_ttl + 1.0)
        assert queue.reap_expired() == [fp]
        assert queue.status(fp).state == PENDING
        new = queue.claim("w2")
        assert new.attempt == 2
        assert new.token != old.token
        # the first holder's late writes are refused
        with pytest.raises(StaleLeaseError):
            queue.complete(fp, old.token, {"v": 1})
        with pytest.raises(StaleLeaseError):
            queue.heartbeat(fp, old.token)

    def test_heartbeat_refused_past_deadline(self, queue, clock):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        clock.advance(queue.job_deadline + 1.0)
        with pytest.raises(ServiceError, match="deadline"):
            queue.heartbeat(fp, lease.token)

    def test_forced_expiry_under_live_worker(self, queue):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        queue.expire_lease(fp)
        assert queue.status(fp).state == PENDING
        with pytest.raises(StaleLeaseError):
            queue.complete(fp, lease.token, {"v": 1})

    def test_forced_expiry_needs_running_job(self, queue):
        fp = queue.submit(spec())
        with pytest.raises(ServiceError, match="not running"):
            queue.expire_lease(fp)

    def test_exactly_once_completion(self, queue):
        """Complete drops the lease, so a duplicate is refused."""
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        queue.complete(fp, lease.token, {"v": 1})
        with pytest.raises(StaleLeaseError):
            queue.complete(fp, lease.token, {"v": 2})
        assert queue.status(fp).verdict == {"v": 1}


class TestRetry:
    def test_fail_schedules_backoff(self, queue, clock):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        queue.fail(fp, lease.token, "boom")
        status = queue.status(fp)
        assert status.state == PENDING
        assert status.error == "boom"
        expected = clock() + backoff_delay(fp, 1, queue.backoff_base)
        assert status.not_before == pytest.approx(expected)
        # not claimable until the backoff passes
        assert queue.claim("w2") is None
        clock.advance(expected - clock() + 0.01)
        assert queue.claim("w2").attempt == 2

    def test_schedule_is_pinned(self, tmp_path, clock):
        # Literals computed with factor 2.0 and jitter 0.1, the rule's
        # constants: a change to the rule shows up here.
        queue = JobQueue(str(tmp_path / "pinned"), max_attempts=4,
                         backoff_base=1.0, clock=clock)
        fp = queue.submit(spec())
        assert fp.startswith("9fdf3007a5df0c81")
        delays = []
        for _ in range(3):
            lease = queue.claim("w1")
            queue.fail(fp, lease.token, "boom")
            not_before = queue.status(fp).not_before
            delays.append(not_before - clock())
            clock.advance(not_before - clock() + 0.01)
        assert delays == pytest.approx(
            [1.0753204195165196, 2.103077868779788, 4.039439733586975],
            rel=1e-12)

    def test_backoff_grows_exponentially(self):
        # Job fingerprints (the queue's keys) and chunk indices (the
        # runtime supervisor's) follow the same rule: base * 2^(a-1),
        # stretched by at most the 10% jitter.
        for key, base in ((spec().fingerprint, 1.0), ("0", 0.1)):
            for attempt in (1, 2, 3):
                floor = base * 2.0 ** (attempt - 1)
                delay = backoff_delay(key, attempt, base)
                assert floor <= delay <= floor * 1.1

    def test_backoff_jitter_is_deterministic(self):
        fp = spec().fingerprint
        assert backoff_delay(fp, 1, 1.0) == backoff_delay(fp, 1, 1.0)
        assert backoff_delay(fp, 1, 1.0) \
            != backoff_delay(spec(2).fingerprint, 1, 1.0)
        with pytest.raises(ReproError, match="attempt"):
            backoff_delay(fp, 0, 1.0)

    def test_dead_letter_after_max_attempts(self, queue, clock):
        fp = queue.submit(spec())
        for attempt in range(1, queue.max_attempts + 1):
            clock.advance(100.0)
            lease = queue.claim("w1")
            assert lease is not None and lease.attempt == attempt
            queue.fail(fp, lease.token, f"boom {attempt}")
        status = queue.status(fp)
        assert status.state == DEAD
        assert "boom 3" in status.error
        letters = queue.deadletters()
        assert len(letters) == 1
        assert letters[0]["fingerprint"] == fp
        assert letters[0]["attempts"] == queue.max_attempts
        assert queue.drained          # dead is terminal
        clock.advance(1000.0)
        assert queue.claim("w1") is None

    def test_resubmit_clears_dead_letter(self, queue, clock):
        fp = queue.submit(spec())
        for _ in range(queue.max_attempts):
            clock.advance(100.0)
            lease = queue.claim("w1")
            queue.fail(fp, lease.token, "boom")
        queue.submit(spec())
        assert queue.status(fp).state == PENDING
        assert queue.deadletters() == []
        lease = queue.claim("w1")
        assert lease is not None and lease.attempt == 1


class TestProgress:
    def test_progress_streams_in_order(self, queue):
        fp = queue.submit(spec())
        for batch in range(3):
            queue.record_progress(fp, {"batch": batch})
        events = queue.progress(fp)
        assert [e["batch"] for e in events] == [0, 1, 2]

    def test_watch_yields_until_terminal(self, queue):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        queue.record_progress(fp, {"batch": 0})
        queue.record_progress(fp, {"batch": 1})
        queue.complete(fp, lease.token, {"v": 1})
        seen = [e["batch"]
                for e in queue.watch(fp, poll=0.01, timeout=5.0)]
        assert seen == [0, 1]

    def test_watch_times_out_on_live_job(self, queue):
        fp = queue.submit(spec())
        queue.claim("w1")
        with pytest.raises(ServiceError, match="timed out"):
            list(queue.watch(fp, poll=0.01, timeout=0.05))


class TestJournalRecovery:
    def test_truncated_tail_complete_recovers(self, queue, clock):
        """A torn 'complete' event is re-derived via re-execution."""
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        queue.complete(fp, lease.token, {"v": 1})
        truncate_queue_journal(queue)
        status = queue.status(fp)
        # the complete event is gone; the job replays as running
        # with no lease, which the reaper returns to pending
        assert status.state == RUNNING
        assert queue.reap_expired() == [fp]
        new = queue.claim("w2")
        assert new is not None
        queue.complete(fp, new.token, {"v": 1})
        assert queue.status(fp).state == SUCCEEDED

    def test_truncated_tail_claim_respects_live_lease(self, queue):
        """A torn 'claim' journal event still protects its holder:
        the lease file it wrote blocks rival claims, and the
        holder's token-checked completion lands."""
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        truncate_queue_journal(queue)
        assert queue.status(fp).state == PENDING  # journal lost it
        assert queue.claim("w2") is None          # lease protects
        queue.complete(fp, lease.token, {"v": 1})
        assert queue.status(fp).state == SUCCEEDED

    def test_truncated_submit_loses_only_last_job(self, queue):
        a = queue.submit(spec(1))
        b = queue.submit(spec(2))
        truncate_queue_journal(queue)
        jobs = queue.jobs()
        assert a in jobs and b not in jobs
        # resubmitting restores it
        queue.submit(spec(2))
        assert b in queue.jobs()

    def test_corrupt_lease_file_treated_as_expired(self, queue):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        path = queue._lease_path(fp)
        with open(path, "w") as handle:
            handle.write("{ torn")
        assert queue.reap_expired() == [fp]
        new = queue.claim("w2")
        assert new is not None and new.attempt == 2
        with pytest.raises(StaleLeaseError):
            queue.complete(fp, lease.token, {"v": 1})


class TestCancellation:
    def test_cancel_pending_job(self, queue):
        fp = queue.submit(spec())
        status = queue.cancel(fp, "operator said stop")
        assert status.state == CANCELLED
        assert status.error == "operator said stop"
        assert status.terminal
        assert queue.claim("w1") is None
        assert queue.drained

    def test_cancel_is_idempotent(self, queue):
        fp = queue.submit(spec())
        queue.cancel(fp)
        assert queue.cancel(fp).state == CANCELLED
        assert queue.event_counts()["cancel"] == 1

    def test_cancel_running_job_is_refused(self, queue):
        fp = queue.submit(spec())
        assert queue.claim("w1") is not None
        with pytest.raises(ServiceError, match="only pending"):
            queue.cancel(fp)

    def test_cancel_unknown_job_is_refused(self, queue):
        with pytest.raises(ServiceError, match="unknown job"):
            queue.cancel("a" * 64)

    def test_cancel_survives_restart(self, tmp_path, clock):
        queue = JobQueue(str(tmp_path / "q2"), clock=clock)
        fp = queue.submit(spec())
        queue.cancel(fp)
        reopened = JobQueue(str(tmp_path / "q2"), clock=clock)
        assert reopened.status(fp).state == CANCELLED

    def test_resubmission_after_cancel_starts_fresh(self, queue):
        fp = queue.submit(spec())
        queue.cancel(fp)
        assert queue.submit(spec()) == fp
        assert queue.status(fp).state == PENDING
        assert queue.claim("w1") is not None


class TestEventCounts:
    def test_lifecycle_tallies(self, queue, clock):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        queue.complete(fp, lease.token, {"ok": True})
        fp2 = queue.submit(spec(seed=2))
        lease2 = queue.claim("w1")
        queue.fail(fp2, lease2.token, "boom")
        counts = queue.event_counts()
        assert counts["submit"] == 2
        assert counts["claim"] == 2
        assert counts["complete"] == 1
        assert counts["fail"] == 1

    def test_expiry_and_deadletter_are_counted(self, queue, clock):
        fp = queue.submit(spec())
        queue.claim("w1")
        clock.advance(11.0)  # lease_ttl is 10
        assert queue.reap_expired() == [fp]
        for _ in range(2):  # attempts 2 and 3 of max_attempts=3
            clock.advance(60.0)
            lease = queue.claim("w1")
            assert lease is not None
            queue.fail(fp, lease.token, "boom")
        counts = queue.event_counts()
        assert counts["expire"] == 1
        assert counts["dead"] == 1
        assert queue.status(fp).state == DEAD


class TestClockSkewGrace:
    """Remote-fleet expiry padding: a heartbeat landing marginally
    late by the server's clock must not forfeit a live lease."""

    def _queue(self, tmp_path, clock, grace: float) -> JobQueue:
        return JobQueue(str(tmp_path / f"q-grace-{grace:g}"),
                        lease_ttl=10.0, job_deadline=100.0,
                        max_attempts=3, backoff_base=1.0,
                        clock_skew_grace=grace, clock=clock)

    def test_negative_grace_is_refused(self, tmp_path, clock):
        with pytest.raises(ServiceError, match="clock_skew_grace"):
            self._queue(tmp_path, clock, -0.5)

    def test_grace_keeps_marginally_late_lease(self, tmp_path,
                                               clock):
        queue = self._queue(tmp_path, clock, 2.0)
        fp = queue.submit(spec())
        lease = queue.claim("remote-1")
        # The server's clock says the lease expired 1s ago — within
        # the configured skew grace, so the holder keeps it.
        clock.advance(11.0)
        assert queue.reap_expired() == []
        assert queue.claim("remote-2") is None
        # The skewed-late renewal still lands.
        expires = queue.heartbeat(fp, lease.token)
        assert expires == clock.now + 10.0
        # Past expiry *plus* grace the lease is genuinely abandoned.
        clock.advance(12.1)
        assert queue.reap_expired() == [fp]
        with pytest.raises(StaleLeaseError):
            queue.heartbeat(fp, lease.token)

    def test_without_grace_same_skew_forfeits(self, tmp_path, clock):
        queue = self._queue(tmp_path, clock, 0.0)
        fp = queue.submit(spec())
        lease = queue.claim("remote-1")
        clock.advance(11.0)
        assert queue.reap_expired() == [fp]
        with pytest.raises(StaleLeaseError):
            queue.heartbeat(fp, lease.token)

    def test_deadline_is_never_padded(self, tmp_path, clock):
        # A job past its hard budget is hung regardless of whose
        # clock you trust: grace must not keep it alive.
        queue = self._queue(tmp_path, clock, 1000.0)
        fp = queue.submit(spec())
        queue.claim("remote-1")
        clock.advance(101.0)  # past job_deadline=100
        assert queue.reap_expired() == [fp]


class TestIdempotentComplete:
    """Content-addressed verdict + lease token make blind
    resubmission of a complete safe, without ever double-counting."""

    def test_exact_duplicate_is_absorbed(self, queue):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        verdict = {"kind": "probe", "failures": 3}
        assert queue.complete(fp, lease.token, verdict) is True
        # The blind wire retry: same token, same canonical verdict.
        assert queue.complete(fp, lease.token,
                              {"failures": 3, "kind": "probe"}) \
            is False
        assert queue.event_counts()["complete"] == 1
        assert queue.status(fp).verdict == verdict

    def test_differing_verdict_is_refused(self, queue):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        queue.complete(fp, lease.token, {"failures": 3})
        with pytest.raises(StaleLeaseError):
            queue.complete(fp, lease.token, {"failures": 4})

    def test_superseded_token_is_refused(self, queue, clock):
        fp = queue.submit(spec())
        stale = queue.claim("w1")
        clock.advance(11.0)
        assert queue.reap_expired() == [fp]
        fresh = queue.claim("w2")
        assert fresh.token != stale.token
        # The zombie's late complete is refused even though its
        # verdict would have been recorded verbatim by the new
        # holder — exactly-once beats at-least-once here.
        with pytest.raises(StaleLeaseError):
            queue.complete(fp, stale.token, {"failures": 3})
        assert queue.complete(fp, fresh.token,
                              {"failures": 3}) is True

    def test_non_canonical_verdict_does_not_poison_the_fold(self,
                                                           queue):
        """A verdict canonical JSON refuses (NaN) is journaled as
        before and must not stop later verbs from folding it."""
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        assert queue.complete(fp, lease.token,
                              {"rate": float("nan")}) is True
        assert queue.status(fp).state == SUCCEEDED
        assert queue.event_counts()["complete"] == 1


def garble_event(queue: JobQueue, position: int) -> None:
    """Change one journaled event on disk without fixing its
    checksum."""
    _, path = queue.journal._record_files("events")[position]
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    record["fingerprint"] = "0" * 64
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


class TestJournalFold:
    """Each verb folds only the events appended since its last replay;
    a record is still checksum-verified when it is folded."""

    def test_records_read_grow_with_events_not_journal(
            self, queue, monkeypatch):
        read = []
        real = checkpoint._read_checked_json

        def counting(path):
            if os.path.basename(path).startswith("events-"):
                read.append(path)
            return real(path)

        monkeypatch.setattr(checkpoint, "_read_checked_json", counting)
        for seed in range(40):
            fp = queue.submit(spec(seed))
            lease = queue.claim("w1")
            assert lease.fingerprint == fp
            queue.complete(fp, lease.token, {"v": seed})
            assert queue.status(fp).state == SUCCEEDED
        journaled = len(queue.journal._record_files("events"))
        assert journaled == 120
        assert len(read) <= 2 * journaled

    def test_callers_cannot_mutate_the_fold(self, queue):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        queue.complete(fp, lease.token, {"interval": {"low": 0.1}},
                       meta={"evaluations": 3})
        status = queue.status(fp)
        status.state = PENDING
        status.verdict["interval"]["low"] = 9.0
        queue.jobs()[fp].meta["evaluations"] = 0
        again = queue.status(fp)
        assert again.state == SUCCEEDED
        assert again.verdict == {"interval": {"low": 0.1}}
        assert again.meta == {"evaluations": 3}

    def test_second_writer_is_folded(self, queue, clock):
        a = queue.submit(spec(1))
        assert queue.status(a).state == PENDING
        other = JobQueue(queue.root, lease_ttl=10.0, clock=clock)
        b = other.submit(spec(2))
        lease = other.claim("w2")
        assert lease.fingerprint == a
        assert queue.status(a).state == RUNNING
        assert set(queue.jobs()) == {a, b}
        queue.complete(a, lease.token, {"v": 1})
        assert other.status(a).state == SUCCEEDED
        assert queue.event_counts() == other.event_counts() == {
            "submit": 2, "claim": 1, "complete": 1}

    def test_folded_tail_torn_in_place_is_replayed(self, queue):
        fp = queue.submit(spec())
        lease = queue.claim("w1")
        queue.complete(fp, lease.token, {"v": 1})
        assert queue.status(fp).state == SUCCEEDED  # folded
        truncate_queue_journal(queue)
        assert queue.status(fp).state == RUNNING
        assert queue.event_counts() == {"submit": 1, "claim": 1}

    def test_wiped_root_is_replayed(self, queue):
        queue.submit(spec(1))
        assert len(queue.jobs()) == 1
        shutil.rmtree(queue.root)
        assert queue.jobs() == {}
        b = queue.submit(spec(2))
        assert queue.status(b).submit_index == 0
        assert set(queue.jobs()) == {b}

    def test_mid_journal_damage_refuses_fresh_queue(self, queue, clock):
        for seed in range(3):
            queue.submit(spec(seed))
        garble_event(queue, 1)
        with pytest.raises(CheckpointError, match="integrity"):
            JobQueue(queue.root, clock=clock).jobs()

    def test_damage_in_unfolded_records_is_refused(self, queue, clock):
        queue.submit(spec(1))
        assert len(queue.jobs()) == 1
        other = JobQueue(queue.root, clock=clock)
        other.submit(spec(2))
        other.submit(spec(3))
        garble_event(queue, 1)
        with pytest.raises(CheckpointError, match="integrity"):
            queue.jobs()


class TestFsyncsPerJob:
    """Pins how many fsyncs one job lifecycle costs through the
    service (no heartbeat fires: the interval outlasts the job)."""

    def test_fresh_and_cached_lifecycle(self, tmp_path, monkeypatch):
        service = CertificationService(
            str(tmp_path / "svc"),
            config=fast_config(lease_ttl=60.0, heartbeat_interval=30.0))
        synced = []
        real = os.fsync

        def counting(fd):
            synced.append(fd)
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)
        counts = []
        for _ in range(2):
            synced.clear()
            fp = service.submit(mc_spec())
            service.run_until_drained()
            counts.append(len(synced))
        assert service.status(fp).meta["cache_hit"] is True
        # fresh: submit, claim + lease, engine header/cursor/verdicts/
        # final, one progress record, cache entry, complete.
        # cached: submit, claim + lease, one progress record, complete.
        assert counts == [10, 5]
