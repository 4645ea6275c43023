"""Model-based check of JobQueue against a plain-dict model.

A hypothesis ``RuleBasedStateMachine`` drives one queue on a fake
clock through random interleavings of submit, claim, heartbeat,
complete, fail, forced expiry, reap, cancel, clock advances and a
torn journal tail, and mirrors every transition in dictionaries:

* ``jobs`` — what replaying the journal must derive per job (state,
  attempt, backoff ``not_before``, submit index);
* ``leases`` — the lease files (token, attempt, expiry, deadline);
* ``completes`` — the (fingerprint, token, verdict) completes the
  journal holds, which decide duplicate delivery.

After every step ``status()``/``counts()`` must equal the model, no
submitted job may be missing, and the journal must hold at most one
``complete`` per job per submission round.

A torn tail is only drawn when the newest event is a claim, complete,
fail or expire: those are the losses the queue re-derives from its
lease files.  A torn submit or cancel loses the request itself, which
no replay can recover.
"""

from __future__ import annotations

import copy
import json
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, settings
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
        self.queue = JobQueue(self.root, lease_ttl=LEASE_TTL,
                              job_deadline=job_deadline,
                              max_attempts=MAX_ATTEMPTS,
                              backoff_base=1.0, clock=self.clock)
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
            fingerprint, attempt, self.queue.backoff_base,
            self.queue.backoff_factor, self.queue.backoff_jitter)

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
            self._append("expire")
            job["state"] = PENDING
            self.leases.pop(fingerprint, None)
            expected.append(fingerprint)
        assert reaped == expected

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

    @precondition(lambda self: self.last_event in TORN_RECOVERABLE)
    @rule()
    def tear_journal_tail(self):
        assert truncate_queue_journal(self.queue) is not None
        # The lost event's effect on the replayed state is undone;
        # the lease files it wrote or removed stay as they are.
        self.jobs, self.completes = self.before_last
        self.last_event = None

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
