"""Multi-process worker pool and the service facade.

The :class:`WorkerPool` forks ``config.workers`` child processes,
each running the :class:`~repro.service.worker.Worker` claim loop
against the shared on-disk queue, and supervises them from the
parent:

* **reap** — expired leases (dead or silent holders) are returned to
  ``pending`` every scheduling tick;
* **kill** — a child whose lease has passed its hard *deadline* is
  SIGKILLed (it is hung: a healthy worker would have finished or
  stopped heartbeating on its own), which also releases any advisory
  store locks it held;
* **respawn** — children that exit (chaos kills, deadline kills,
  crashes) are replaced while undrained work remains, up to the
  configured pool size.

Coordination is entirely through the filesystem — journal, lease
files, advisory locks — so the pool tolerates losing *any* process,
including the parent: a fresh pool pointed at the same root resumes
exactly where the dead one stopped.

:class:`CertificationService` bundles queue + cache + pool behind
the small facade the CLI and the tests use.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exceptions import ServiceError
from repro.runtime.chaos import FaultPlan
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.policy import RuntimePolicy
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
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    poll_interval: float = 0.05
    store_lock_timeout: float = 10.0
    # Expiry padding for remote fleets: a heartbeat landing
    # marginally late by the server's clock (skew + transit) must
    # not forfeit a live lease.  The hard deadline is never padded.
    clock_skew_grace: float = 0.0
    # Verdict-cache eviction policy (None = unbounded, the historic
    # behaviour): an LRU entry bound and/or a TTL in seconds.
    cache_max_entries: Optional[int] = None
    cache_max_age: Optional[float] = None


def _worker_main(root: str, config: ServiceConfig, name: str,
                 chaos: Optional[FaultPlan],
                 runtime: Optional[RuntimePolicy]) -> None:
    """Child-process entry: claim until the queue drains."""
    service = CertificationService(root, config=config, chaos=chaos,
                                   runtime=runtime)
    # The pool's supervisor reaps; the child just claims until drained.
    service.worker(name).run_until_drained(
        poll=config.poll_interval, timeout=math.inf, reap=False)


class WorkerPool:
    """Forks and supervises the worker processes."""

    def __init__(self, root: str, config: ServiceConfig,
                 chaos: Optional[FaultPlan] = None,
                 runtime: Optional[RuntimePolicy] = None) -> None:
        if config.workers < 1:
            raise ServiceError(
                f"pool needs >= 1 worker, got {config.workers}"
            )
        self.root = os.fspath(root)
        self.config = config
        self.chaos = chaos
        self.runtime = runtime
        self._context = multiprocessing.get_context("fork")
        self._children: List[multiprocessing.Process] = []
        self._spawned = 0

    def _spawn(self) -> None:
        self._spawned += 1
        name = f"worker-{self._spawned}"
        child = self._context.Process(
            target=_worker_main,
            args=(self.root, self.config, name, self.chaos,
                  self.runtime),
            name=name, daemon=True)
        child.start()
        self._children.append(child)

    def _kill_overdeadline(self, queue: JobQueue) -> int:
        """SIGKILL children hung past their job's hard deadline."""
        now = queue.clock()
        hung_workers = {
            lease.get("worker") for lease in queue.leases()
            if now > float(lease.get("deadline_at", now + 1.0))
        }
        killed = 0
        for child in self._children:
            if child.name in hung_workers and child.is_alive():
                os.kill(child.pid, signal.SIGKILL)
                child.join(timeout=5.0)
                killed += 1
        return killed

    def run_until_drained(self, queue: JobQueue,
                          timeout: float = 600.0) -> Dict[str, int]:
        """Supervise until every job is terminal; returns counts.

        Raises :class:`ServiceError` at timeout with the queue's
        counts in the message, after stopping all children.
        """
        deadline = time.monotonic() + timeout
        incidents = {"respawns": 0, "deadline_kills": 0,
                     "reaped_leases": 0}
        try:
            while not queue.drained:
                if time.monotonic() >= deadline:
                    raise ServiceError(
                        f"pool timed out after {timeout:g}s with "
                        f"queue counts {queue.counts()}"
                    )
                incidents["deadline_kills"] += \
                    self._kill_overdeadline(queue)
                incidents["reaped_leases"] += \
                    len(queue.reap_expired())
                self._children = [child for child in self._children
                                  if child.is_alive()]
                while len(self._children) < self.config.workers:
                    self._spawn()
                    if self._spawned > self.config.workers:
                        incidents["respawns"] += 1
                time.sleep(self.config.poll_interval)
        finally:
            self.stop()
        return incidents

    def stop(self) -> None:
        for child in self._children:
            if child.is_alive():
                child.terminate()
            child.join(timeout=5.0)
        self._children = []


class CertificationService:
    """Queue + cache + pool behind one handle.

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
            backoff_factor=self.config.backoff_factor,
            backoff_jitter=self.config.backoff_jitter,
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
            QueueTransport(
                self.queue, self.cache,
                store_lock_timeout=self.config.store_lock_timeout),
            name=name,
            heartbeat_interval=self.config.heartbeat_interval,
            runtime=self.runtime, chaos=self.chaos)

    def run_until_drained(self, timeout: float = 600.0
                          ) -> Dict[str, Any]:
        """Drain the queue; forked pool or in-process.

        ``config.workers == 0`` runs a single in-process worker (no
        fork — deterministic, debuggable, used by most tests); any
        positive count forks a supervised pool.
        """
        if self.config.workers == 0:
            turns = self.worker().run_until_drained(
                poll=self.config.poll_interval, timeout=timeout)
            return {"mode": "in-process", "turns": turns,
                    "counts": self.counts()}
        pool = WorkerPool(self.root, self.config, chaos=self.chaos,
                          runtime=self.runtime)
        incidents = pool.run_until_drained(self.queue,
                                           timeout=timeout)
        return {"mode": "pool", "counts": self.counts(),
                **incidents}
