"""One process supervisor: forked slots with per-child deadlines.

:class:`Slots` keeps a fixed number of forked children ("slots"),
each with an optional deadline.  An overdue slot is SIGKILLed on its
own, a slot that exits is noticed at once through its sentinel, and
a replacement is forked while the caller has work left.

:class:`Supervisor` runs indexed engine chunks on long-lived slots: a
child receives ``make_task(index, attempt)`` over its pipe and sends
back ``worker_fn(task)`` or the error, while the parent waits on the
pipes and sentinels until the next deadline or backoff.

* a chunk whose slot dies or misses ``chunk_deadline_seconds`` is lost
  alone: it counts as expired and is retried, after
  :func:`backoff_delay`, like a chunk whose worker raised; the other
  chunks keep running;
* a chunk that exhausts ``max_retries`` is **quarantined**: evaluated
  in the parent, where a forked-child pathology cannot follow it.  If
  that fails too, the run ends in
  :class:`~repro.exceptions.RuntimeIntegrityError` — complete results
  or a typed error, never a silent gap;
* ``KeyboardInterrupt`` tears the slots down and propagates, so the
  engine can flush a final checkpoint.

The certification service runs its lease workers in the same slots,
each slot's deadline being its lease's ``deadline_at``.
"""

from __future__ import annotations

import hashlib
import heapq
import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Callable, List, Optional, Tuple

from repro.exceptions import ReproError, RuntimeIntegrityError


#: Each retry waits this many times the previous one.
BACKOFF_FACTOR = 2.0
#: A delay is stretched by up to this fraction, hashed per key.
BACKOFF_JITTER = 0.1


def backoff_delay(key: str, attempt: int, base: float) -> float:
    """Exponential backoff with deterministic per-key jitter.

    The one retry rule: keyed by chunk index here, by job fingerprint
    in the service queue and by request in its client.  ``attempt`` is
    1-based; the delay is ``base * BACKOFF_FACTOR ** (attempt - 1)``
    stretched by up to ``BACKOFF_JITTER``.  Jitter is hashed from
    (key, attempt), so schedules replay exactly while keys that fail
    together still decorrelate.
    """
    if attempt < 1:
        raise ReproError(f"attempt must be >= 1, got {attempt}")
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return (base * (BACKOFF_FACTOR ** (attempt - 1))
            * (1.0 + BACKOFF_JITTER * unit))


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


@dataclass
class SupervisionReport:
    """Everything the supervisor had to do beyond plain scheduling."""

    chunks: int = 0
    retries: int = 0
    expired_chunks: int = 0
    worker_errors: int = 0
    pool_restarts: int = 0  # slots forked to replace one
    quarantined: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return (self.retries == 0 and self.expired_chunks == 0
                and self.worker_errors == 0 and not self.quarantined)


@dataclass
class Slot:
    """A forked child, the parent's end of its pipe, its deadline and
    the caller's task on it (``None``: none)."""

    process: Any
    conn: connection.Connection
    deadline: Optional[float] = None
    task: Any = None


class Slots:
    """Up to ``size`` forked children, each running ``target(name,
    conn)``; deadlines are read on ``clock``."""

    def __init__(self, size: int,
                 target: Callable[[str, connection.Connection], None],
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.size = size
        self.target = target
        self.clock = clock
        self.live: List[Slot] = []
        self.forked = 0
        self.replaced = 0  # forks beyond the first ``size``

    def _main(self, name: str, conn: connection.Connection) -> None:
        for slot in self.live:  # siblings' pipes: see EOF if orphaned
            slot.conn.close()
        self.target(name, conn)

    def fill(self) -> None:
        """Fork children until ``size`` are live."""
        context = multiprocessing.get_context("fork")
        while len(self.live) < self.size:
            self.forked += 1
            self.replaced += self.forked > self.size
            name = f"worker-{self.forked}"
            parent_end, child_end = context.Pipe()
            process = context.Process(target=self._main,
                                      args=(name, child_end),
                                      name=name, daemon=True)
            process.start()
            child_end.close()
            self.live.append(Slot(process, parent_end))

    def wait(self, timeout: Optional[float]) -> None:
        """Block up to ``timeout`` s (``None``: forever) or until a
        slot's pipe is readable or its child exits."""
        connection.wait([slot.conn for slot in self.live]
                        + [slot.process.sentinel for slot in self.live],
                        timeout)

    def kill_overdue(self) -> int:
        """SIGKILL every live slot past its deadline; returns how many."""
        now = self.clock()
        overdue = [slot for slot in self.live if slot.process.is_alive()
                   and slot.deadline is not None and now > slot.deadline]
        for slot in overdue:
            slot.process.kill()
            slot.process.join(timeout=5.0)
        return len(overdue)

    def reap(self) -> List[Slot]:
        """Remove and return the slots whose child has exited."""
        gone = [slot for slot in self.live
                if not slot.process.is_alive()]
        for slot in gone:
            slot.conn.close()
        self.live = [slot for slot in self.live if slot not in gone]
        return gone

    def stop(self) -> None:
        for slot in self.live:
            slot.process.kill()
        for slot in self.live:
            slot.process.join()
        self.reap()


def _serve(conn: connection.Connection,
           worker_fn: Callable[[Any], Any]) -> None:
    """A chunk slot's loop: run each task received, send the reply."""
    while True:
        try:
            task = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, worker_fn(task))
        except Exception as exc:
            reply = (False, exc)
        conn.send(reply)


class Supervisor:
    """Run indexed tasks on supervised forked slots."""

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
            make_task: builds the picklable payload sent over the
                pipe for (index, attempt) — the attempt number rides
                along so chaos injection can tell retries apart.
            worker_fn: run on each payload in a forked slot; it is
                inherited at fork, so it need not pickle.
            workers: slot count (must be >= 1; fork must be available).
            on_result: called exactly once per index, in completion
                order, with the worker's return value.
            local_eval: in-parent fallback used to quarantine a chunk
                that exhausted its retries.
        """
        config = self.config
        report = SupervisionReport(chunks=num_tasks)
        if num_tasks == 0:
            return report
        slots = Slots(workers,
                      lambda name, conn: _serve(conn, worker_fn))
        # A heap of (ready_at, index, attempt); retries wait a backoff.
        waiting: List[Tuple[float, int, int]] = [
            (0.0, index, 0) for index in range(num_tasks)]
        remaining = num_tasks

        def _requeue(index: int, attempt: int,
                     cause: Optional[BaseException]) -> None:
            nonlocal remaining
            attempt += 1
            if attempt <= config.max_retries:
                report.retries += 1
                heapq.heappush(waiting, (time.monotonic() + backoff_delay(
                    str(index), attempt, config.backoff_base_seconds),
                    index, attempt))
                return
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

        try:
            while remaining > 0:
                slots.fill()
                now = time.monotonic()
                for slot in slots.live:
                    if slot.task is None and waiting \
                            and waiting[0][0] <= now:
                        slot.task = heapq.heappop(waiting)[1:]
                        slot.deadline = now + config.chunk_deadline_seconds
                        try:
                            slot.conn.send(make_task(*slot.task))
                        except OSError:
                            pass  # died idle: reaped below, task lost
                wakeups = [slot.deadline for slot in slots.live
                           if slot.deadline is not None]
                if waiting and waiting[0][0] > now:
                    wakeups.append(waiting[0][0])
                timeout = (max(0.0, min(wakeups) - time.monotonic())
                           if wakeups else None)
                slots.wait(timeout)
                for slot in slots.live:
                    if slot.task is None or not slot.conn.poll():
                        continue
                    try:
                        ok, value = slot.conn.recv()
                    except EOFError:
                        continue  # died mid-task: reaped below
                    (index, attempt), slot.task = slot.task, None
                    slot.deadline = None
                    if ok:
                        on_result(index, value)
                        remaining -= 1
                    else:
                        report.worker_errors += 1
                        _requeue(index, attempt, value)
                slots.kill_overdue()
                for slot in slots.reap():
                    if slot.task is not None:
                        report.expired_chunks += 1
                        _requeue(*slot.task, None)
            report.pool_restarts = slots.replaced
        finally:
            slots.stop()
        return report
