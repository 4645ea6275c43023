"""Durable, crash-safe job queue: journal, leases, retry, dead-letter.

The queue is a directory::

    <root>/
      journal/            append-only "events" CheckpointStore records
      jobs/<fp>/          per-job journal: progress events + engine
                          checkpoints (substore "engine")
      leases/<fp>.json    atomic, checksummed lease files
      deadletter/<fp>.json  quarantined jobs after bounded attempts
      queue.lock          advisory lock serialising state transitions

Queue state is *derived*, never stored: every transition appends one
event record (``submit`` / ``claim`` / ``complete`` / ``fail`` /
``expire`` / ``dead``) to the journal, and readers replay the journal
to reconstruct each job's :class:`~repro.service.jobs.JobStatus`.
Records are atomic and checksummed (CheckpointStore), and replay runs
with ``tolerate_tail=True``: a crash- or chaos-truncated *last* event
is quarantined and its effect re-derived from the surrounding files —
a lost ``claim`` is covered by the lease file it wrote, a lost
``complete`` by the lease it removed (the job is reaped, re-claimed
and served from the ResultCache).  A corrupt event in the middle of
the journal is unambiguous damage and raises
:class:`~repro.exceptions.CheckpointError`.

Leases make crash recovery safe: a claim writes
``leases/<fp>.json`` with a random token and an expiry; the worker
heartbeats by atomically rewriting the file.  A worker that dies or
hangs stops heartbeating, the lease expires, and
:meth:`JobQueue.reap_expired` returns the job to ``pending`` for
re-claim under a *fresh* token.  Any late write from the original
holder — heartbeat, completion, failure — fails token validation and
raises :class:`~repro.exceptions.StaleLeaseError`, so a job's
terminal verdict is recorded exactly once.

Retries back off by :func:`repro.runtime.backoff_delay` keyed by job
fingerprint (deterministic jitter, so schedules are reproducible),
and a job that exhausts ``max_attempts`` moves to the dead-letter
directory as a typed terminal state instead of retrying forever.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.exceptions import CheckpointError, ServiceError, \
    StaleLeaseError
from repro.runtime.checkpoint import CheckpointStore, _flock, \
    _read_checked_json, _write_atomic_json
from repro.runtime.supervisor import backoff_delay
from repro.service.jobs import CANCELLED, DEAD, FAILED, JobSpec, \
    JobStatus, PENDING, RUNNING, SUCCEEDED, canonical_json

_EVENTS = "events"
_QUEUE_LOCK = "queue.lock"


@dataclass(frozen=True)
class Lease:
    """A claimed job: spec plus the credentials to act on it.

    ``cached_verdict`` is set when the ResultCache already holds the
    job's verdict at claim time; the holder completes with it instead
    of executing.
    """

    spec: JobSpec
    fingerprint: str
    token: str
    attempt: int
    claimed_at: float
    expires_at: float
    deadline_at: float
    submit_index: int = 0
    cached_verdict: Optional[Dict[str, Any]] = None

    def to_json_dict(self) -> Dict[str, Any]:
        """The wire form ``/v1/work/claim`` answers with."""
        data = {name: getattr(self, name) for name in _LEASE_FIELDS}
        data["spec"] = self.spec.to_json_dict()
        if self.cached_verdict is not None:
            data["cached_verdict"] = self.cached_verdict
        return data

    @classmethod
    def from_json_dict(cls, data: Dict[str, Any]) -> "Lease":
        try:
            return cls(spec=JobSpec.from_json_dict(data["spec"]),
                       cached_verdict=data.get("cached_verdict"),
                       **{name: data[name] for name in _LEASE_FIELDS})
        except (TypeError, KeyError) as exc:
            raise ServiceError(
                f"malformed lease payload: {data!r}") from exc


_LEASE_FIELDS = ("fingerprint", "token", "attempt", "claimed_at",
                 "expires_at", "deadline_at", "submit_index")


class JobQueue:
    """The durable queue.  All transitions serialise on ``queue.lock``.

    Safe for concurrent use from many processes: every mutating
    method takes the queue-level advisory lock, re-derives state from
    the journal, validates, appends exactly one event and updates the
    lease/dead-letter files before releasing it.  The kernel releases
    the lock if the holder dies, so a SIGKILL mid-transition never
    wedges the queue (the interrupted transition is the torn-tail
    case replay already recovers from).
    """

    def __init__(self, root: str, *,
                 lease_ttl: float = 30.0,
                 job_deadline: float = 3600.0,
                 max_attempts: int = 3,
                 backoff_base: float = 1.0,
                 backoff_factor: float = 2.0,
                 backoff_jitter: float = 0.1,
                 clock_skew_grace: float = 0.0,
                 clock: Callable[[], float] = time.time) -> None:
        if clock_skew_grace < 0.0:
            raise ServiceError(
                f"clock_skew_grace must be >= 0, got "
                f"{clock_skew_grace!r}"
            )
        self.root = os.fspath(root)
        self.lease_ttl = float(lease_ttl)
        self.job_deadline = float(job_deadline)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_jitter = float(backoff_jitter)
        self.clock_skew_grace = float(clock_skew_grace)
        self.clock = clock
        self.journal = CheckpointStore(
            os.path.join(self.root, "journal"))

    # -- paths -------------------------------------------------------

    def _lease_path(self, fingerprint: str) -> str:
        return os.path.join(self.root, "leases",
                            fingerprint + ".json")

    def _deadletter_path(self, fingerprint: str) -> str:
        return os.path.join(self.root, "deadletter",
                            fingerprint + ".json")

    def job_store(self, fingerprint: str) -> CheckpointStore:
        """The per-job journal (progress events, engine substore)."""
        return CheckpointStore(
            os.path.join(self.root, "jobs", fingerprint))

    def _locked(self):
        return _flock(os.path.join(self.root, _QUEUE_LOCK))

    # -- replay ------------------------------------------------------

    def _replay(self) -> Dict[str, JobStatus]:
        """Derive every job's state from the event journal.

        ``tolerate_tail=True``: a truncated final record is
        quarantined and its effect recovered from the lease and
        dead-letter files (see module docstring).
        """
        jobs: Dict[str, JobStatus] = {}
        for record in self.journal.load_records(_EVENTS,
                                                tolerate_tail=True):
            event = record.get("event")
            fingerprint = record.get("fingerprint", "")
            if event == "submit":
                spec = JobSpec.from_json_dict(record["spec"])
                existing = jobs.get(fingerprint)
                if existing is None or existing.terminal:
                    jobs[fingerprint] = JobStatus(
                        spec=spec, fingerprint=fingerprint,
                        submit_index=int(record.get("index", 0)))
                continue
            status = jobs.get(fingerprint)
            if status is None:
                # An event for a job whose submit record was lost to
                # tail truncation of an earlier journal generation;
                # cannot happen mid-journal (submit precedes every
                # other event), so treat as damage.
                raise CheckpointError(
                    f"queue journal event {event!r} references "
                    f"unknown job {fingerprint[:12]}…"
                )
            if event == "claim":
                status.state = RUNNING
                status.attempt = int(record["attempt"])
                status.worker = str(record.get("worker", ""))
            elif event == "complete":
                status.state = SUCCEEDED
                status.verdict = dict(record.get("verdict", {}))
                status.meta = dict(record.get("meta", {}))
                status.error = ""
            elif event == "fail":
                status.state = PENDING
                status.error = str(record.get("error", ""))
                status.not_before = float(
                    record.get("not_before", 0.0))
            elif event == "dead":
                status.state = DEAD
                status.error = str(record.get("error", ""))
            elif event == "cancel":
                status.state = CANCELLED
                status.error = str(record.get("reason", ""))
            elif event == "expire":
                if not status.terminal:
                    status.state = PENDING
            else:
                raise CheckpointError(
                    f"queue journal holds unknown event {event!r}"
                )
        return jobs

    # -- lease files -------------------------------------------------

    def _read_lease(self, fingerprint: str
                    ) -> Optional[Dict[str, Any]]:
        path = self._lease_path(fingerprint)
        if not os.path.isfile(path):
            return None
        try:
            return _read_checked_json(path)
        except CheckpointError:
            # A torn or poisoned lease cannot vouch for its holder:
            # quarantine it and treat the job as lease-less (it will
            # be reaped and re-claimed under a fresh token).
            try:
                os.replace(path, path + ".corrupt")
            except OSError:
                pass
            return None

    def _write_lease(self, lease: Dict[str, Any]) -> None:
        path = self._lease_path(lease["fingerprint"])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_atomic_json(path, lease)

    def _drop_lease(self, fingerprint: str) -> None:
        try:
            os.unlink(self._lease_path(fingerprint))
        except OSError:
            pass

    def _check_token(self, fingerprint: str, token: str
                     ) -> Dict[str, Any]:
        lease = self._read_lease(fingerprint)
        if lease is None or lease.get("token") != token:
            raise StaleLeaseError(
                f"lease for job {fingerprint[:12]}… is no longer "
                f"held under this token; the job was re-leased or "
                "expired — refusing the late write"
            )
        return lease

    # -- submission --------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Enqueue a job; returns its fingerprint.

        Idempotent while the job is in flight (a duplicate submit of
        a pending/running job is a no-op).  Re-submitting a
        *terminal* job starts a fresh round — the expected path for
        "run it again", which the worker answers from the ResultCache
        without touching the simulator.
        """
        fingerprint = spec.fingerprint
        with self._locked():
            jobs = self._replay()
            existing = jobs.get(fingerprint)
            if existing is not None and not existing.terminal:
                return fingerprint
            self.journal.append_record(_EVENTS, {
                "event": "submit",
                "fingerprint": fingerprint,
                "spec": spec.to_json_dict(),
                "index": len(jobs),
                "submitted_at": self.clock(),
            })
            # A fresh round must not inherit a stale dead-letter.
            try:
                os.unlink(self._deadletter_path(fingerprint))
            except OSError:
                pass
        return fingerprint

    def cancel(self, fingerprint: str,
               reason: str = "cancelled by client") -> JobStatus:
        """Cancel a *pending* job; returns its new status.

        Idempotent: cancelling an already-cancelled job is a no-op.
        A running job cannot be cancelled — its worker holds a valid
        lease and will record a verdict exactly once; cancelling
        underneath it would race that guarantee — and the other
        terminal states are immutable history, so both are refused
        with a typed :class:`~repro.exceptions.ServiceError`.
        """
        with self._locked():
            jobs = self._replay()
            status = jobs.get(fingerprint)
            if status is None:
                raise ServiceError(
                    f"cannot cancel unknown job {fingerprint[:12]}…"
                )
            if status.state == CANCELLED:
                return status
            if status.state != PENDING:
                raise ServiceError(
                    f"cannot cancel job {fingerprint[:12]}… in state "
                    f"{status.state!r}; only pending jobs are "
                    "cancellable"
                )
            self.journal.append_record(_EVENTS, {
                "event": "cancel",
                "fingerprint": fingerprint,
                "reason": str(reason),
                "cancelled_at": self.clock(),
            })
            status.state = CANCELLED
            status.error = str(reason)
            return status

    # -- claiming ----------------------------------------------------

    def claim(self, worker: str) -> Optional[Lease]:
        """Claim the oldest runnable job, or None if none is due.

        A job is runnable when replay says ``pending``, its backoff
        ``not_before`` has passed, and no live lease file exists
        (a valid lease with a lost ``claim`` event still protects its
        holder).  Claiming writes the journal event *then* the lease
        file; a crash between the two leaves a running job without a
        lease, which :meth:`reap_expired` returns to pending.
        """
        now = self.clock()
        with self._locked():
            jobs = self._replay()
            for fingerprint in sorted(
                    jobs, key=lambda f: jobs[f].submit_index):
                status = jobs[fingerprint]
                if status.state != PENDING:
                    continue
                if status.not_before > now:
                    continue
                lease = self._read_lease(fingerprint)
                if lease is not None:
                    expires = float(lease.get("expires_at", 0.0)) \
                        + self.clock_skew_grace
                    if expires > now:
                        continue  # live holder, journal lost claim
                    self._drop_lease(fingerprint)
                attempt = status.attempt + 1
                if attempt > self.max_attempts:
                    self._bury(status, "attempts exhausted before "
                                       "claim")
                    continue
                lease = Lease(
                    spec=status.spec, fingerprint=fingerprint,
                    token=os.urandom(8).hex(), attempt=attempt,
                    claimed_at=now, expires_at=now + self.lease_ttl,
                    deadline_at=now + self.job_deadline,
                    submit_index=status.submit_index)
                held = lease.to_json_dict()
                del held["spec"], held["submit_index"]
                held["worker"] = worker
                self.journal.append_record(_EVENTS,
                                           {"event": "claim", **held})
                self._write_lease(held)
                return lease
        return None

    def heartbeat(self, fingerprint: str, token: str) -> float:
        """Extend the lease; returns the new expiry.

        Refused with :class:`StaleLeaseError` when the lease was
        re-issued or expired away, or when the job's hard deadline has
        passed — a worker that cannot finish in time must stop
        renewing and abandon the attempt, not limp on.
        """
        now = self.clock()
        with self._locked():
            lease = self._check_token(fingerprint, token)
            if now > float(lease.get("deadline_at", now)):
                raise StaleLeaseError(
                    f"job {fingerprint[:12]}… passed its deadline; "
                    "refusing to renew the lease"
                )
            lease["expires_at"] = now + self.lease_ttl
            self._write_lease(lease)
            return float(lease["expires_at"])

    # -- completion / failure ----------------------------------------

    def complete(self, fingerprint: str, token: str,
                 verdict: Dict[str, Any],
                 meta: Optional[Dict[str, Any]] = None) -> bool:
        """Record a terminal verdict (token-checked, exactly once).

        Returns True when this call journaled the verdict, False when
        it was an exact *duplicate delivery*: the journal already
        holds a ``complete`` for this job under the **same** lease
        token with the **same** verdict, so a retried complete — a
        remote worker resubmitting blindly after an ambiguous network
        fault — is absorbed without a second journal append.  A late
        complete under a *different* token (the lease expired and was
        re-issued) is still refused with
        :class:`~repro.exceptions.StaleLeaseError`: content-addressed
        verdict + lease token together are what make resubmission
        safe without ever double-counting.
        """
        with self._locked():
            try:
                self._check_token(fingerprint, token)
            except StaleLeaseError:
                if self._is_duplicate_complete(fingerprint, token,
                                               verdict):
                    return False
                raise
            self.journal.append_record(_EVENTS, {
                "event": "complete",
                "fingerprint": fingerprint,
                "token": token,
                "verdict": dict(verdict),
                "meta": dict(meta or {}),
                "completed_at": self.clock(),
            })
            self._drop_lease(fingerprint)
            return True

    def _is_duplicate_complete(self, fingerprint: str, token: str,
                               verdict: Dict[str, Any]) -> bool:
        """True iff the journal holds this exact complete already.

        Caller holds the queue lock.  Matching is by canonical JSON of
        the verdict — the same content-addressing the cache uses — so
        only a bit-identical resubmission of the recorded verdict is
        treated as duplicate delivery.
        """
        wanted = canonical_json(dict(verdict))
        records = self.journal.load_records(_EVENTS,
                                            tolerate_tail=True)
        for record in records:
            if (record.get("event") == "complete"
                    and record.get("fingerprint") == fingerprint
                    and record.get("token") == token
                    and canonical_json(dict(record.get(
                        "verdict", {}))) == wanted):
                return True
        return False

    def fail(self, fingerprint: str, token: str, error: str) -> None:
        """Record a failed attempt: backoff-retry or dead-letter."""
        now = self.clock()
        with self._locked():
            lease = self._check_token(fingerprint, token)
            attempt = int(lease.get("attempt", 1))
            if attempt >= self.max_attempts:
                jobs = self._replay()
                status = jobs.get(fingerprint)
                if status is None:
                    raise CheckpointError(
                        f"failing unknown job {fingerprint[:12]}…"
                    )
                status.attempt = attempt
                self._bury(status, error)
            else:
                delay = backoff_delay(
                    fingerprint, attempt, self.backoff_base,
                    self.backoff_factor, self.backoff_jitter)
                self.journal.append_record(_EVENTS, {
                    "event": "fail",
                    "fingerprint": fingerprint,
                    "token": token,
                    "attempt": attempt,
                    "error": str(error),
                    "not_before": now + delay,
                })
            self._drop_lease(fingerprint)

    def _bury(self, status: JobStatus, error: str) -> None:
        """Dead-letter a job (caller holds the queue lock)."""
        self.journal.append_record(_EVENTS, {
            "event": "dead",
            "fingerprint": status.fingerprint,
            "attempt": status.attempt,
            "error": str(error),
        })
        path = self._deadletter_path(status.fingerprint)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_atomic_json(path, {
            "fingerprint": status.fingerprint,
            "spec": status.spec.to_json_dict(),
            "attempts": status.attempt,
            "error": str(error),
        })
        self._drop_lease(status.fingerprint)

    # -- lease expiry ------------------------------------------------

    def reap_expired(self) -> List[str]:
        """Return expired/abandoned running jobs to ``pending``.

        Covers three holder failure modes with one sweep: a dead
        holder (lease expired, no heartbeats), a hung holder (lease
        heartbeats stopped at the deadline), and a crash between the
        claim event and the lease write (running job with no lease
        file at all).

        ``clock_skew_grace`` pads the expiry (not the hard deadline)
        before a lease is declared abandoned: in a multi-host fleet
        the lease's ``expires_at`` was computed from *this* server's
        clock but the holder heartbeats over a network, so a renewal
        landing marginally "late" by the server's clock — skew plus
        transit time — must not forfeit a live lease.  The deadline
        is deliberately not padded: a job that overran its hard
        budget is hung regardless of whose clock you trust.
        """
        now = self.clock()
        reaped = []
        with self._locked():
            jobs = self._replay()
            for fingerprint, status in jobs.items():
                if status.state != RUNNING:
                    continue
                lease = self._read_lease(fingerprint)
                if lease is not None:
                    expired = (now > float(lease.get("expires_at",
                                                     0.0))
                               + self.clock_skew_grace
                               or now > float(lease.get("deadline_at",
                                                        now + 1.0)))
                    if not expired:
                        continue
                self.journal.append_record(_EVENTS, {
                    "event": "expire",
                    "fingerprint": fingerprint,
                    "expired_at": now,
                })
                self._drop_lease(fingerprint)
                reaped.append(fingerprint)
        return reaped

    def expire_lease(self, fingerprint: str) -> None:
        """Chaos hook: force-expire a lease under a live worker.

        The journal records a normal ``expire`` event and the lease
        file is removed, exactly as if the holder had stopped
        heartbeating; the still-running holder's next token-checked
        write raises :class:`StaleLeaseError`.
        """
        with self._locked():
            jobs = self._replay()
            status = jobs.get(fingerprint)
            if status is None or status.state != RUNNING:
                raise ServiceError(
                    f"cannot expire lease of job {fingerprint[:12]}…:"
                    " not running"
                )
            self.journal.append_record(_EVENTS, {
                "event": "expire",
                "fingerprint": fingerprint,
                "expired_at": self.clock(),
                "forced": True,
            })
            self._drop_lease(fingerprint)

    # -- progress / status -------------------------------------------

    def record_progress(self, fingerprint: str,
                        payload: Dict[str, Any]) -> None:
        """Append one streaming progress event to the job journal."""
        self.job_store(fingerprint).append_record(
            "progress", dict(payload))

    def record_progress_checked(self, fingerprint: str, token: str,
                                payload: Dict[str, Any]) -> None:
        """Token-checked progress append for remote holders.

        A partitioned worker whose lease was re-issued must not keep
        streaming into the job journal — its events would interleave
        with the new holder's — so the wire path validates the lease
        token before every append, where the in-process worker's
        direct :meth:`record_progress` relies on process supervision.
        """
        with self._locked():
            self._check_token(fingerprint, token)
            self.record_progress(fingerprint, dict(payload))

    def progress(self, fingerprint: str) -> List[Dict[str, Any]]:
        """All streamed progress events, oldest first."""
        return self.job_store(fingerprint).load_records(
            "progress", tolerate_tail=True)

    def status(self, fingerprint: str) -> Optional[JobStatus]:
        with self._locked():
            return self._replay().get(fingerprint)

    def jobs(self) -> Dict[str, JobStatus]:
        with self._locked():
            return self._replay()

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for status in self.jobs().values():
            tally[status.state] = tally.get(status.state, 0) + 1
        return tally

    def event_counts(self) -> Dict[str, int]:
        """Lifetime event tallies replayed from the queue journal.

        Unlike :meth:`counts` (current state per job) this counts
        *history*: every submit, claim, complete, fail, expire (the
        reap/forced-expiry total), dead-letter and cancel ever
        journaled — the raw material for
        :class:`~repro.service.pool.ServiceStats`.
        """
        tally: Dict[str, int] = {}
        with self._locked():
            records = self.journal.load_records(
                _EVENTS, tolerate_tail=True)
        for record in records:
            event = str(record.get("event", "unknown"))
            tally[event] = tally.get(event, 0) + 1
        return tally

    @property
    def drained(self) -> bool:
        """True when every submitted job reached a terminal state."""
        return all(status.terminal
                   for status in self.jobs().values())

    def watch(self, fingerprint: str, poll: float = 0.2,
              timeout: float = 60.0
              ) -> Iterator[Dict[str, Any]]:
        """Stream progress events until the job goes terminal.

        Yields each progress payload exactly once, in order, polling
        the job journal while the job runs; raises
        :class:`ServiceError` if the job is still live at timeout.
        """
        seen = 0
        deadline = time.monotonic() + timeout
        while True:
            events = self.progress(fingerprint)
            for event in events[seen:]:
                yield event
            seen = len(events)
            status = self.status(fingerprint)
            if status is not None and status.terminal:
                return
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"watch timed out after {timeout:g}s with job "
                    f"{fingerprint[:12]}… still "
                    f"{status.state if status else 'unknown'}"
                )
            time.sleep(poll)

    def leases(self) -> List[Dict[str, Any]]:
        """Every live lease file's contents (unvalidated snapshot)."""
        directory = os.path.join(self.root, "leases")
        if not os.path.isdir(directory):
            return []
        found = []
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".json"):
                continue
            lease = self._read_lease(name[:-len(".json")])
            if lease is not None:
                found.append(lease)
        return found

    def deadletters(self) -> List[Dict[str, Any]]:
        directory = os.path.join(self.root, "deadletter")
        if not os.path.isdir(directory):
            return []
        letters = []
        for name in sorted(os.listdir(directory)):
            if name.endswith(".json"):
                letters.append(_read_checked_json(
                    os.path.join(directory, name)))
        return letters


def truncate_queue_journal(queue: JobQueue,
                           keep_bytes: int = 40) -> Optional[str]:
    """Chaos helper: tear the newest queue-journal event mid-record.

    Emulates a crash racing the final append: the last ``events``
    record file is cut to ``keep_bytes`` bytes, which fails its
    checksum on the next replay, is quarantined by
    ``tolerate_tail``, and the lost transition is re-derived.
    Returns the truncated path (None when the journal is empty).
    """
    files = queue.journal._record_files(_EVENTS)
    if not files:
        return None
    _, path = files[-1]
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(blob[:max(1, min(keep_bytes, len(blob) - 1))])
    return path
