"""The service facade and its forked workers.

:class:`CertificationService` bundles queue + cache + workers behind
the facade the CLI and the tests use.  With ``workers > 0`` its drain
runs each worker's claim loop in a slot of
:class:`~repro.runtime.supervisor.Slots`, the one process supervisor,
and every tick the parent reaps expired leases, SIGKILLs a slot whose
lease passed its hard ``deadline_at`` (hung: which also frees its
store locks), and respawns slots that exited while work remains.

Coordination is entirely through the filesystem — journal, lease
files, advisory locks — so the service tolerates losing *any*
process, the parent included: a fresh drain of the same root resumes
exactly where the dead one stopped.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exceptions import ServiceError
from repro.runtime.chaos import FaultPlan
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.policy import RuntimePolicy
from repro.runtime.supervisor import Slots
from repro.service.cache import ResultCache
from repro.service.jobs import JobSpec, JobStatus
from repro.service.queue import JobQueue
from repro.service.worker import QueueTransport, Worker


@dataclass
class ServiceStats:
    """One service-wide observability snapshot.

    Folds together what previously had to be dug out of three
    journals by hand: current job states, lifetime queue events
    (including how many leases ``reap_expired`` ever reclaimed and
    how many jobs were dead-lettered), live leases, and the verdict
    cache's size/quarantine/eviction accounting.  Shaped after
    :meth:`repro.analysis.engine.EngineStats.to_json_dict` so reports
    and the ``/v1/stats`` endpoint serialise it directly.
    """

    jobs: Dict[str, int] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)
    live_leases: int = 0
    deadletters: int = 0
    deadletter_reasons: List[str] = field(default_factory=list)
    cache_entries: int = 0
    cache_quarantined: int = 0
    cache_evictions: Dict[str, int] = field(default_factory=dict)

    @property
    def reaped_leases(self) -> int:
        """Lifetime ``expire`` events (reaps + forced expiries)."""
        return self.events.get("expire", 0)

    @property
    def dead_lettered(self) -> int:
        """Lifetime ``dead`` events (dead-letter quarantines)."""
        return self.events.get("dead", 0)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "jobs": dict(sorted(self.jobs.items())),
            "events": dict(sorted(self.events.items())),
            "reaped_leases": self.reaped_leases,
            "dead_lettered": self.dead_lettered,
            "live_leases": self.live_leases,
            "deadletters": self.deadletters,
            "deadletter_reasons": list(self.deadletter_reasons),
            "cache_entries": self.cache_entries,
            "cache_quarantined": self.cache_quarantined,
            "cache_evictions": dict(sorted(
                self.cache_evictions.items())),
        }

    def summary_lines(self) -> List[str]:
        """Human-readable block, EngineStats-style."""
        jobs = ", ".join(f"{state}={count}" for state, count in
                         sorted(self.jobs.items())) or "none"
        evictions = ", ".join(
            f"{reason}={count}" for reason, count in
            sorted(self.cache_evictions.items())) or "none"
        reasons = "; ".join(self.deadletter_reasons) or "none"
        return [
            f"service: jobs [{jobs}], {self.live_leases} live "
            f"leases, {self.deadletters} dead-lettered",
            f"  lifetime: {self.events.get('submit', 0)} submits, "
            f"{self.events.get('claim', 0)} claims, "
            f"{self.events.get('complete', 0)} completions, "
            f"{self.events.get('fail', 0)} failed attempts, "
            f"{self.reaped_leases} leases reaped, "
            f"{self.events.get('cancel', 0)} cancelled",
            f"  cache: {self.cache_entries} entries, "
            f"{self.cache_quarantined} quarantined, "
            f"evictions [{evictions}]",
            f"  dead-letter reasons: [{reasons}]",
        ]


@dataclass
class ServiceConfig:
    """Every scheduling knob in one place.

    Defaults suit interactive runs; tests shrink the timing knobs to
    tens of milliseconds so chaos scenarios resolve in seconds.
    """

    workers: int = 2
    lease_ttl: float = 30.0
    heartbeat_interval: Optional[float] = None
    job_deadline: float = 3600.0
    max_attempts: int = 3
    backoff_base: float = 1.0
    poll_interval: float = 0.05
    # Expiry padding for remote fleets: a heartbeat landing
    # marginally late by the server's clock (skew + transit) must
    # not forfeit a live lease.  The hard deadline is never padded.
    clock_skew_grace: float = 0.0
    # Verdict-cache eviction policy (None = unbounded, the historic
    # behaviour): an LRU entry bound and/or a TTL in seconds.
    cache_max_entries: Optional[int] = None
    cache_max_age: Optional[float] = None


class CertificationService:
    """Queue + cache + workers behind one handle.

    Layout under ``root``::

        <root>/queue/   the JobQueue (journal, leases, jobs, ...)
        <root>/cache/   the ResultCache shards
        <root>/sweeps/  per-sweep merge journals (repro.service.sweep)

    The handle is cheap and stateless — every process (submitters,
    workers, watchers) opens its own against the same root.  A
    ``chaos`` plan reaches its workers (``job`` faults) and any
    :class:`~repro.service.net.CertificationServer` fronting the
    service (``net`` and ``fleet`` faults).
    """

    def __init__(self, root: str,
                 config: Optional[ServiceConfig] = None,
                 chaos: Optional[FaultPlan] = None,
                 runtime: Optional[RuntimePolicy] = None) -> None:
        self.root = os.fspath(root)
        self.config = config or ServiceConfig()
        self.chaos = chaos
        self.runtime = runtime
        self.queue = JobQueue(
            os.path.join(self.root, "queue"),
            lease_ttl=self.config.lease_ttl,
            job_deadline=self.config.job_deadline,
            max_attempts=self.config.max_attempts,
            backoff_base=self.config.backoff_base,
            clock_skew_grace=self.config.clock_skew_grace)
        self.cache = ResultCache(
            os.path.join(self.root, "cache"),
            max_entries=self.config.cache_max_entries,
            max_age=self.config.cache_max_age)
        self.sweeps = CheckpointStore(
            os.path.join(self.root, "sweeps"))

    # -- submission / inspection -------------------------------------

    def submit(self, spec: JobSpec) -> str:
        return self.queue.submit(spec)

    def cancel(self, fingerprint: str,
               reason: str = "cancelled by client") -> JobStatus:
        return self.queue.cancel(fingerprint, reason)

    def status(self, fingerprint: str) -> Optional[JobStatus]:
        return self.queue.status(fingerprint)

    def watch(self, fingerprint: str, **kwargs):
        return self.queue.watch(fingerprint, **kwargs)

    def counts(self) -> Dict[str, int]:
        return self.queue.counts()

    def stats(self) -> ServiceStats:
        """The service-wide :class:`ServiceStats` snapshot."""
        letters = self.queue.deadletters()
        return ServiceStats(
            jobs=self.queue.counts(),
            events=self.queue.event_counts(),
            live_leases=len(self.queue.leases()),
            deadletters=len(letters),
            deadletter_reasons=[
                f"{letter.get('fingerprint', '')[:12]}…: "
                f"{letter.get('error', '')}"
                for letter in letters],
            cache_entries=len(self.cache.entries()),
            cache_quarantined=len(self.cache.quarantined()),
            cache_evictions=self.cache.eviction_counts())

    def sweep_store(self, fingerprint: str) -> CheckpointStore:
        """The per-sweep merge journal (repro.service.sweep)."""
        return self.sweeps.substore(fingerprint)

    # -- execution ---------------------------------------------------

    def worker(self, name: str = "worker") -> Worker:
        return Worker(
            QueueTransport(self.queue, self.cache),
            name=name,
            heartbeat_interval=self.config.heartbeat_interval,
            runtime=self.runtime, chaos=self.chaos)

    def _slot_main(self, name: str, conn: Any) -> None:
        """A forked slot: claim until drained; the parent reaps."""
        CertificationService(
            self.root, self.config, self.chaos, self.runtime
        ).worker(name).run_until_drained(
            poll=self.config.poll_interval, timeout=math.inf,
            reap=False)

    def run_until_drained(self, timeout: float = 600.0
                          ) -> Dict[str, Any]:
        """Drain the queue; forked slots or in-process.

        ``config.workers == 0`` runs a single in-process worker (no
        fork — deterministic, debuggable, used by most tests); any
        positive count runs that many supervised slots.  Raises
        :class:`ServiceError` at timeout with the queue's counts in
        the message, after stopping every slot.
        """
        config, queue = self.config, self.queue
        if config.workers == 0:
            turns = self.worker().run_until_drained(
                poll=config.poll_interval, timeout=timeout)
            return {"mode": "in-process", "turns": turns,
                    "counts": self.counts()}
        if config.workers < 0:
            raise ServiceError(
                f"pool needs >= 1 worker, got {config.workers}")
        slots = Slots(config.workers, self._slot_main, clock=queue.clock)
        deadline = time.monotonic() + timeout
        incidents = {"deadline_kills": 0, "reaped_leases": 0}
        try:
            while not queue.drained:
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"pool timed out after {timeout:g}s with "
                        f"queue counts {queue.counts()}")
                held = {lease.get("worker"):
                        float(lease.get("deadline_at", math.inf))
                        for lease in queue.leases()}
                for slot in slots.live:
                    slot.deadline = held.get(slot.process.name)
                incidents["deadline_kills"] += slots.kill_overdue()
                incidents["reaped_leases"] += len(queue.reap_expired())
                slots.reap()
                slots.fill()
                slots.wait(config.poll_interval)
        finally:
            slots.stop()
        return {"mode": "pool", "counts": self.counts(),
                "respawns": slots.replaced, **incidents}
