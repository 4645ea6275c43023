"""Supervised fork-pool execution with deadlines, retries, quarantine.

``multiprocessing.Pool`` alone fails the resilience bar in two ways:
a worker that is SIGKILLed mid-task leaves its task unfinished forever
(the pool replaces the process but never re-queues the work), and a
worker stuck in a pathological simulation blocks ``imap`` with no
recourse.  The :class:`Supervisor` closes both holes with one
mechanism — a per-chunk wall-clock deadline:

* every chunk is dispatched with ``apply_async`` and watched; a chunk
  that misses its deadline (hung *or* silently dead worker) triggers
  a pool restart, re-queues innocent in-flight chunks at their current
  attempt, and re-queues the offender with an incremented attempt;
* failed or expired attempts are retried after :func:`backoff_delay`
  (exponential, with jitter hashed from the chunk index and attempt),
  up to ``max_retries``;
* a chunk that exhausts its retries is **quarantined**: evaluated
  in the parent process as a last resort (a fork-pool pathology cannot
  follow it there).  If even that fails, the run terminates with
  :class:`~repro.exceptions.RuntimeIntegrityError` — a supervised run
  returns complete results or a typed error, never a silent gap;
* ``KeyboardInterrupt`` tears the pool down cleanly and propagates, so
  callers (the engine) can flush a final checkpoint.

The supervisor is workload-agnostic: it schedules integer-indexed
tasks through a picklable ``worker_fn`` and reports what happened in a
:class:`SupervisionReport`.  The analysis engine is its only in-repo
client, but nothing here knows about fault patterns.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ReproError, RuntimeIntegrityError


def backoff_delay(key: str, attempt: int, base: float, factor: float,
                  jitter: float) -> float:
    """Exponential backoff with deterministic per-key jitter.

    The one retry rule: keyed by chunk index here, by job fingerprint
    in the service queue and by request in its client.  ``attempt`` is
    1-based.  Jitter is hashed from (key, attempt), so schedules replay
    exactly while keys that fail together still decorrelate.
    """
    if attempt < 1:
        raise ReproError(f"attempt must be >= 1, got {attempt}")
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return base * (factor ** (attempt - 1)) * (1.0 + jitter * unit)


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs.

    The defaults are sized for real campaigns (generous deadline so a
    legitimately heavy chunk is never shot); the chaos suite shrinks
    them to keep fault-injection tests fast.
    """

    chunk_deadline_seconds: float = 600.0
    max_retries: int = 2
    backoff_base_seconds: float = 0.25
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    poll_interval_seconds: float = 0.02


@dataclass
class SupervisionReport:
    """Everything the supervisor had to do beyond plain scheduling."""

    chunks: int = 0
    retries: int = 0
    expired_chunks: int = 0
    worker_errors: int = 0
    pool_restarts: int = 0
    quarantined: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (self.retries == 0 and self.expired_chunks == 0
                and self.worker_errors == 0 and not self.quarantined)


@dataclass
class _InFlight:
    handle: Any
    deadline: float
    attempt: int


class Supervisor:
    """Run indexed tasks through a supervised fork pool."""

    def __init__(self, config: Optional[SupervisorConfig] = None
                 ) -> None:
        self.config = config or SupervisorConfig()

    def run(self,
            num_tasks: int,
            make_task: Callable[[int, int], Any],
            worker_fn: Callable[[Any], Any],
            workers: int,
            on_result: Callable[[int, Any], None],
            local_eval: Callable[[int], Any]) -> SupervisionReport:
        """Schedule tasks 0..num_tasks-1 until every one has a result.

        Args:
            make_task: builds the picklable payload for (index,
                attempt) — the attempt number rides along so chaos
                injection and logging can tell retries apart.
            worker_fn: module-level function executed in pool workers.
            workers: pool size (must be >= 1; fork must be available).
            on_result: called exactly once per index, in completion
                order, with the worker's return value.
            local_eval: in-parent fallback used to quarantine a chunk
                that exhausted its retries.
        """
        config = self.config
        report = SupervisionReport(chunks=num_tasks)
        if num_tasks == 0:
            return report
        context = multiprocessing.get_context("fork")
        pool = context.Pool(processes=workers)
        pending: deque = deque((i, 0) for i in range(num_tasks))
        delayed: List[Tuple[float, int, int]] = []
        inflight: Dict[int, _InFlight] = {}
        remaining = num_tasks

        def _quarantine(index: int, attempt: int,
                        cause: Optional[BaseException]) -> None:
            nonlocal remaining
            report.quarantined.append(index)
            try:
                result = local_eval(index)
            except KeyboardInterrupt:
                raise
            except BaseException as exc:
                raise RuntimeIntegrityError(
                    f"chunk {index} failed {attempt} supervised "
                    f"attempt(s) and the in-parent quarantine "
                    f"evaluation also failed; no correct result is "
                    f"available"
                ) from (exc if cause is None else cause)
            on_result(index, result)
            remaining -= 1

        def _requeue(index: int, attempt: int,
                     cause: Optional[BaseException]) -> None:
            next_attempt = attempt + 1
            if next_attempt > config.max_retries:
                _quarantine(index, next_attempt, cause)
                return
            report.retries += 1
            ready_at = time.monotonic() + backoff_delay(
                str(index), next_attempt, config.backoff_base_seconds,
                config.backoff_factor, config.backoff_jitter)
            delayed.append((ready_at, index, next_attempt))

        try:
            while remaining > 0:
                now = time.monotonic()
                for entry in list(delayed):
                    if entry[0] <= now:
                        delayed.remove(entry)
                        pending.append((entry[1], entry[2]))
                while pending and len(inflight) < workers:
                    index, attempt = pending.popleft()
                    handle = pool.apply_async(
                        worker_fn, (make_task(index, attempt),))
                    inflight[index] = _InFlight(
                        handle, time.monotonic()
                        + config.chunk_deadline_seconds, attempt)
                finished = [i for i, f in inflight.items()
                            if f.handle.ready()]
                for index in finished:
                    flight = inflight.pop(index)
                    try:
                        result = flight.handle.get()
                    except KeyboardInterrupt:
                        raise
                    except BaseException as exc:
                        report.worker_errors += 1
                        _requeue(index, flight.attempt, exc)
                    else:
                        on_result(index, result)
                        remaining -= 1
                now = time.monotonic()
                expired = [i for i, f in inflight.items()
                           if f.deadline <= now]
                if expired:
                    # A missed deadline means a hung or silently dead
                    # worker; either way the pool's state is suspect.
                    # Restart it, punish the expired chunks with a
                    # retry, and re-queue innocent in-flight chunks at
                    # their current attempt.
                    report.expired_chunks += len(expired)
                    report.pool_restarts += 1
                    pool.terminate()
                    pool.join()
                    pool = context.Pool(processes=workers)
                    for index in list(inflight):
                        flight = inflight.pop(index)
                        if index in expired:
                            _requeue(index, flight.attempt, None)
                        else:
                            pending.appendleft((index, flight.attempt))
                elif not finished and remaining > 0:
                    time.sleep(config.poll_interval_seconds)
        finally:
            pool.terminate()
            pool.join()
        return report
