"""Model-based check of JobQueue against a plain-dict model.

A hypothesis ``RuleBasedStateMachine`` drives one queue on a fake
clock through random interleavings of submit, claim, heartbeat,
complete, fail, forced expiry, reap (plus a targeted reap with the
clock between a lease's deadline and its expiry), cancel, clock
advances, a torn journal tail and transitions made by a second
``JobQueue`` on the same root (standing in for a forked or concurrent
writer), and mirrors every transition in dictionaries:

* ``jobs`` — what replaying the journal must derive per job (state,
  attempt, backoff ``not_before``, submit index);
* ``leases`` — the lease files (token, attempt, expiry, deadline);
* ``completes`` — the (fingerprint, token, verdict) completes the
  journal holds, which decide duplicate delivery.

After every step ``status()``/``counts()`` must equal the model, no
submitted job may be missing, the live queue's in-memory fold must
equal a fresh replay by a newly opened queue, and the journal must
hold at most one ``complete`` per job per submission round.

A torn tail is only drawn when the newest event is a claim, complete,
fail or expire: those are the losses the queue re-derives from its
lease files.  A torn submit or cancel loses the request itself, which
no replay can recover.
"""

from __future__ import annotations

import contextlib
import copy
import json
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    multiple,
    precondition,
    rule,
)

from repro.exceptions import ServiceError, StaleLeaseError
from repro.service import (
    CANCELLED,
    DEAD,
    JobQueue,
    JobSpec,
    PENDING,
    RUNNING,
    SUCCEEDED,
    TERMINAL_STATES,
    backoff_delay,
    truncate_queue_journal,
)

from tests.service.test_queue import FakeClock

LEASE_TTL = 10.0
MAX_ATTEMPTS = 2
SPECS = [JobSpec.create("monte_carlo", seed=seed, trials=10, p=0.01)
         for seed in range(3)]
TORN_RECOVERABLE = ("claim", "complete", "fail", "expire")


class QueueMachine(RuleBasedStateMachine):
    leases_issued = Bundle("leases_issued")

    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="queue-model-")
        self.clock = FakeClock()
        self.jobs = {}
        self.leases = {}
        self.completes = set()
        self.last_event = None
        self.before_last = None

    # A deadline past the TTL lets a lease lapse by expiry alone; one
    # inside it makes the deadline the first limit a lease hits.
    @initialize(job_deadline=st.sampled_from([5.0, 14.0]))
    def open_queue(self, job_deadline):
        self.job_deadline = job_deadline
        self.queue, self.second = (
            JobQueue(self.root, lease_ttl=LEASE_TTL,
                     job_deadline=job_deadline,
                     max_attempts=MAX_ATTEMPTS, backoff_base=1.0,
                     clock=self.clock)
            for _ in range(2))
        for index in range(len(SPECS)):
            self.submit(index)

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    # -- model helpers -----------------------------------------------

    def _append(self, event: str) -> None:
        """Record that the queue journals ``event`` next."""
        self.before_last = (copy.deepcopy(self.jobs),
                            set(self.completes))
        self.last_event = event

    def _bury(self, fingerprint: str) -> None:
        self._append("dead")
        self.jobs[fingerprint]["state"] = DEAD
        self.leases.pop(fingerprint, None)

    @contextlib.contextmanager
    def _through_second_queue(self):
        """Run one rule's transition through the second queue, whose
        fold lags the live one's."""
        live, self.queue = self.queue, self.second
        try:
            yield
        finally:
            self.queue = live

    # -- rules -------------------------------------------------------

    @rule(index=st.integers(0, len(SPECS) - 1))
    def submit(self, index):
        spec = SPECS[index]
        fingerprint = self.queue.submit(spec)
        assert fingerprint == spec.fingerprint
        job = self.jobs.get(fingerprint)
        if job is not None and job["state"] not in TERMINAL_STATES:
            return
        self._append("submit")
        self.jobs[fingerprint] = {"state": PENDING, "attempt": 0,
                                  "not_before": 0.0,
                                  "index": len(self.jobs)}

    @rule(target=leases_issued)
    def claim(self):
        now = self.clock()
        lease = self.queue.claim("w")
        expected = None
        for fingerprint in sorted(
                self.jobs, key=lambda f: self.jobs[f]["index"]):
            job = self.jobs[fingerprint]
            if job["state"] != PENDING or job["not_before"] > now:
                continue
            held = self.leases.get(fingerprint)
            if held is not None:
                if held["expires_at"] > now:
                    continue
                del self.leases[fingerprint]
            if job["attempt"] + 1 > MAX_ATTEMPTS:
                self._bury(fingerprint)
                continue
            expected = fingerprint
            break
        if expected is None:
            assert lease is None
            return multiple()
        assert lease is not None and lease.fingerprint == expected
        job = self.jobs[expected]
        assert lease.attempt == job["attempt"] + 1
        self._append("claim")
        job["state"] = RUNNING
        job["attempt"] = lease.attempt
        self.leases[expected] = {
            "token": lease.token, "attempt": lease.attempt,
            "expires_at": now + LEASE_TTL,
            "deadline_at": now + self.job_deadline}
        return (expected, lease.token)

    def _holds(self, fingerprint: str, token: str) -> bool:
        held = self.leases.get(fingerprint)
        return held is not None and held["token"] == token

    @rule(issued=leases_issued)
    def heartbeat(self, issued):
        fingerprint, token = issued
        now = self.clock()
        if not self._holds(fingerprint, token):
            with pytest.raises(StaleLeaseError):
                self.queue.heartbeat(fingerprint, token)
            return
        held = self.leases[fingerprint]
        if now > held["deadline_at"]:
            with pytest.raises(ServiceError, match="deadline"):
                self.queue.heartbeat(fingerprint, token)
            return
        assert self.queue.heartbeat(fingerprint, token) \
            == now + LEASE_TTL
        held["expires_at"] = now + LEASE_TTL

    @rule(issued=leases_issued, value=st.integers(0, 1))
    def complete(self, issued, value):
        fingerprint, token = issued
        verdict = {"value": value}
        key = (fingerprint, token, json.dumps(verdict))
        if not self._holds(fingerprint, token):
            if key in self.completes:
                assert self.queue.complete(fingerprint, token,
                                           verdict) is False
            else:
                with pytest.raises(StaleLeaseError):
                    self.queue.complete(fingerprint, token, verdict)
            return
        assert self.queue.complete(fingerprint, token, verdict) is True
        self._append("complete")
        self.jobs[fingerprint]["state"] = SUCCEEDED
        self.completes.add(key)
        del self.leases[fingerprint]

    @rule(issued=leases_issued)
    def fail(self, issued):
        fingerprint, token = issued
        now = self.clock()
        if not self._holds(fingerprint, token):
            with pytest.raises(StaleLeaseError):
                self.queue.fail(fingerprint, token, "boom")
            return
        self.queue.fail(fingerprint, token, "boom")
        attempt = self.leases.pop(fingerprint)["attempt"]
        if attempt >= MAX_ATTEMPTS:
            self._bury(fingerprint)
            return
        self._append("fail")
        job = self.jobs[fingerprint]
        job["state"] = PENDING
        job["not_before"] = now + backoff_delay(
            fingerprint, attempt, self.queue.backoff_base)

    @rule(index=st.integers(0, len(SPECS) - 1))
    def expire_lease(self, index):
        fingerprint = SPECS[index].fingerprint
        job = self.jobs.get(fingerprint)
        if job is None or job["state"] != RUNNING:
            with pytest.raises(ServiceError, match="not running"):
                self.queue.expire_lease(fingerprint)
            return
        self.queue.expire_lease(fingerprint)
        self._append("expire")
        job["state"] = PENDING
        self.leases.pop(fingerprint, None)

    @rule()
    def reap(self):
        now = self.clock()
        reaped = self.queue.reap_expired()
        expected = []
        for fingerprint, job in self.jobs.items():
            if job["state"] != RUNNING:
                continue
            held = self.leases.get(fingerprint)
            if held is not None and not (now > held["expires_at"]
                                         or now > held["deadline_at"]):
                continue
            if held is not None and now <= held["expires_at"]:
                event("reap: lease past its deadline, not its expiry")
            self._append("expire")
            job["state"] = PENDING
            self.leases.pop(fingerprint, None)
            expected.append(fingerprint)
        assert reaped == expected

    def _before_deadline(self):
        """Running jobs whose held lease reaches its deadline before
        its expiry, and has reached neither yet."""
        now = self.clock()
        return [fingerprint for fingerprint, held
                in sorted(self.leases.items())
                if self.jobs[fingerprint]["state"] == RUNNING
                and now <= held["deadline_at"] < held["expires_at"]]

    @precondition(lambda self: self._before_deadline())
    @rule()
    def reap_past_deadline(self):
        """Move the clock between a lease's deadline and its expiry,
        then reap: the deadline alone must reclaim it."""
        fingerprint = self._before_deadline()[0]
        held = self.leases[fingerprint]
        self.clock.advance((held["deadline_at"] + held["expires_at"])
                           / 2 - self.clock())
        self.reap()
        assert fingerprint not in self.leases

    @rule(index=st.integers(0, len(SPECS) - 1))
    def cancel(self, index):
        fingerprint = SPECS[index].fingerprint
        job = self.jobs.get(fingerprint)
        if job is None or job["state"] not in (PENDING, CANCELLED):
            with pytest.raises(ServiceError, match="cancel"):
                self.queue.cancel(fingerprint)
            return
        assert self.queue.cancel(fingerprint).state == CANCELLED
        if job["state"] == PENDING:
            self._append("cancel")
            job["state"] = CANCELLED

    @rule(seconds=st.sampled_from([1.0, 6.0, 11.0]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule(target=leases_issued)
    def claim_elsewhere(self):
        with self._through_second_queue():
            return self.claim()

    @rule(verb=st.sampled_from(["submit", "cancel", "expire_lease"]),
          index=st.integers(0, len(SPECS) - 1))
    def transition_elsewhere(self, verb, index):
        with self._through_second_queue():
            getattr(self, verb)(index)

    @precondition(lambda self: self.last_event in TORN_RECOVERABLE)
    @rule(observer=st.sampled_from(["live", "second"]))
    def tear_journal_tail(self, observer):
        """Tear the newest event after the live queue folded it.

        The invariants replay after every rule, so the live fold
        already holds the torn record.  Whichever queue looks first
        finds it rewritten in place; the live queue, when second,
        finds it quarantined by the other.
        """
        newest = self.queue.journal._record_files("events")[-1][0]
        assert self.queue._fold.sequence == newest
        assert truncate_queue_journal(self.queue) is not None
        # The lost event's effect on the replayed state is undone;
        # the lease files it wrote or removed stay as they are.
        self.jobs, self.completes = self.before_last
        self.last_event = None
        first = self.queue if observer == "live" else self.second
        assert set(first.jobs()) == set(self.jobs)

    # -- invariants --------------------------------------------------

    @invariant()
    def replay_matches_model(self):
        jobs = self.queue.jobs()
        assert set(jobs) == set(self.jobs)
        for fingerprint, job in self.jobs.items():
            status = self.queue.status(fingerprint)
            assert status.state == job["state"]
            assert status.attempt == job["attempt"]
            assert status.submit_index == job["index"]
            assert status.not_before == job["not_before"]
        tally = {}
        for job in self.jobs.values():
            tally[job["state"]] = tally.get(job["state"], 0) + 1
        assert self.queue.counts() == tally

    @invariant()
    def fold_equals_fresh_replay(self):
        assert self.queue.jobs() \
            == JobQueue(self.root, clock=self.clock).jobs()

    @invariant()
    def completed_at_most_once_per_round(self):
        completes = {}
        for record in self.queue.journal.load_records(
                "events", tolerate_tail=True):
            fingerprint = record["fingerprint"]
            if record["event"] == "submit":
                completes[fingerprint] = 0
            elif record["event"] == "complete":
                completes[fingerprint] += 1
                assert completes[fingerprint] == 1


TestQueueModel = QueueMachine.TestCase
TestQueueModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
