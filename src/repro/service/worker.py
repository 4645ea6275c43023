"""The certification worker: claim, execute, stream, complete.

:class:`Worker` is the service's one lease loop.  It runs over a
:class:`LeaseTransport` — :class:`QueueTransport` in-process, or
:class:`~repro.service.remote.HttpTransport` from a remote host — and
one turn (:meth:`Worker.run_once`) is:

1. **Claim** the oldest runnable job (token + TTL lease).  If the
   :class:`~repro.service.cache.ResultCache` holds its verdict, the
   claim carries it and the turn completes at once with
   ``meta.evaluations == 0``: not one simulator run.
2. **Execute** otherwise: dispatch by job kind to the seeded analysis
   entry point with the transport's engine CheckpointStore, so a
   re-claimed job resumes bit-identically.  A heartbeat thread renews
   the lease; past the job's hard deadline the renewal is refused and
   the attempt abandoned, so a hung worker loses its lease.
3. **Stream** per-batch progress (trials, failures, a Wilson interval,
   the sequential decision if any) into the job journal.
4. **Complete**: the verdict is cached, then recorded in the queue,
   token-checked; if the lease was re-issued mid-run the late write
   raises :class:`~repro.exceptions.StaleLeaseError` and the attempt
   is abandoned — the new holder owns the job.

A failed attempt is reported with the transport's ``fail``, which
schedules a backoff retry or dead-letters the job.  A sequential job
that exhausts its trial budget *undecided* completes with a typed
**partial** verdict (``verdict.partial`` is true).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Dict, Iterator, \
    Optional, Protocol, Tuple

from repro.analysis.engine import run_monte_carlo
from repro.analysis.sequential import run_sequential_monte_carlo
from repro.analysis.stats import wilson_interval
from repro.analysis.stress import gadget_cases, stress_certify
from repro.codes import SteaneCode, TrivialCode
from repro.exceptions import ServiceError, StaleLeaseError
from repro.noise import NoiseModel
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.fallback import FallbackPolicy
from repro.runtime.policy import RuntimePolicy
from repro.service.cache import ResultCache
from repro.service.chaos import ServiceChaosPlan
from repro.service.jobs import JobSpec
from repro.service.queue import JobQueue, Lease

_CODES = {"trivial": TrivialCode, "steane": SteaneCode}


def _resolve_code(name: str):
    try:
        return _CODES[name]()
    except KeyError:
        raise ServiceError(
            f"unknown code {name!r}; pick from {sorted(_CODES)}"
        ) from None


def _build_case(code_name: str, gadget_name: str):
    code = _resolve_code(code_name)
    case = gadget_cases(code, (gadget_name,))[0]
    return case.factory()


def resolve_policy(base: Optional[RuntimePolicy],
                   params: Dict[str, Any]
                   ) -> Optional[RuntimePolicy]:
    """Per-job FallbackPolicy threading via ``fallback_ladder``."""
    ladder = params.get("fallback_ladder")
    if ladder is None:
        return base
    policy = base or RuntimePolicy()
    return RuntimePolicy(
        supervisor=policy.supervisor,
        fallback=FallbackPolicy(ladder=tuple(ladder)),
        chaos=policy.chaos)


@dataclass
class ExecutionContext:
    """Everything a job-kind handler needs, whatever the transport.

    The verdict the handlers produce is a pure function of ``spec`` —
    where the worker ran never shows up in the result.
    """

    spec: JobSpec
    store: Any                      # engine CheckpointStore
    worker: str
    attempt: int
    runtime: Optional[RuntimePolicy] = None
    stream: Callable[[Dict[str, Any]], None] = lambda payload: None
    on_batch: Callable[[int], None] = lambda at: None

    def _meta(self, **extra: Any) -> Dict[str, Any]:
        return {"cache_hit": False, "worker": self.worker,
                "attempt": self.attempt, **extra}


def execute_job(ctx: ExecutionContext
                ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Dispatch one job spec to its seeded analysis entry point."""
    handlers = {
        "monte_carlo": _execute_monte_carlo,
        "sequential_monte_carlo": _execute_sequential,
        "stress_certify": _execute_stress,
    }
    try:
        handler = handlers[ctx.spec.kind]
    except KeyError:
        raise ServiceError(
            f"no handler for job kind {ctx.spec.kind!r}"
        ) from None
    return handler(ctx)


def _execute_monte_carlo(ctx: ExecutionContext
                         ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    params = ctx.spec.params_dict
    gadget, initial, evaluator = _build_case(
        params.get("code", "trivial"), params.get("gadget", "n"))
    p = float(params["p"])
    trials = int(params["trials"])
    chunk_size = int(params.get("chunk_size", 64))

    def progress(event) -> None:
        if event.phase != "evaluate":
            return
        ctx.stream({
            "phase": event.phase,
            "chunk": event.chunk_index,
            "chunks_total": event.chunks_total,
            "worker": ctx.worker,
            "attempt": ctx.attempt,
        })
        ctx.on_batch(event.chunk_index)

    result = run_monte_carlo(
        gadget, initial, evaluator, NoiseModel.uniform(p),
        trials=trials, seed=int(params["seed"]),
        chunk_size=chunk_size, workers=1,
        checkpoint=ctx.store, resume=True, progress=progress,
        runtime=resolve_policy(ctx.runtime, params))
    interval = wilson_interval(result.failures, result.trials)
    verdict = {
        "kind": "monte_carlo",
        "p": p,
        "trials": result.trials,
        "failures": result.failures,
        "failure_rate": result.failure_rate,
        "failures_by_fault_count": {
            str(k): v for k, v in
            sorted(result.failures_by_fault_count.items())},
        "fault_count_histogram": {
            str(k): v for k, v in
            sorted(result.fault_count_histogram.items())},
        "interval": interval.to_json_dict(),
    }
    stats = result.engine_stats
    meta = ctx._meta(
        evaluations=stats.evaluations if stats else None,
        engine=stats.to_json_dict() if stats else None)
    return verdict, meta


def _execute_sequential(ctx: ExecutionContext
                        ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    params = ctx.spec.params_dict
    gadget, initial, evaluator = _build_case(
        params.get("code", "trivial"), params.get("gadget", "n"))
    p = float(params["p"])

    def on_batch(batch: int, consumed: int, failures: int,
                 decision: Optional[str]) -> None:
        interval = wilson_interval(failures, consumed) \
            if consumed else None
        ctx.stream({
            "batch": batch,
            "trials": consumed,
            "failures": failures,
            "decision": decision,
            "interval": (interval.to_json_dict()
                         if interval else None),
            "worker": ctx.worker,
            "attempt": ctx.attempt,
        })
        ctx.on_batch(batch)

    outcome = run_sequential_monte_carlo(
        gadget, initial, evaluator, NoiseModel.uniform(p),
        p0=float(params["p0"]), p1=float(params["p1"]),
        alpha=float(params.get("alpha", 0.05)),
        beta=float(params.get("beta", 0.05)),
        max_trials=int(params["max_trials"]),
        seed=int(params["seed"]),
        batch_size=int(params.get("batch_size", 64)),
        method=str(params.get("method", "sprt")),
        checkpoint=ctx.store, resume=True, on_batch=on_batch,
        runtime=resolve_policy(ctx.runtime, params))
    claim = outcome.verdict
    verdict = {
        "kind": "sequential_monte_carlo",
        "decision": claim.decision,
        "partial": claim.decision == "undecided",
        "claim": claim.to_json_dict(),
        "trials": claim.trials,
        "failures": claim.failures,
        "batches": outcome.batches,
    }
    stats = outcome.result.engine_stats
    meta = ctx._meta(
        evaluations=stats.evaluations if stats else None,
        engine=stats.to_json_dict() if stats else None)
    return verdict, meta


def _execute_stress(ctx: ExecutionContext
                    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    params = ctx.spec.params_dict
    code = _resolve_code(params.get("code", "trivial"))
    report = stress_certify(
        code=code,
        p=float(params.get("p", 0.005)),
        trials=int(params.get("trials", 100)),
        seed=int(params.get("seed", 20260806)),
        gadgets=tuple(params.get("gadgets", ("n", "recovery"))),
        include_structural=bool(
            params.get("include_structural", False)),
        checkpoint=ctx.store,
    )
    verdict = {
        "kind": "stress_certify",
        "certified": report.certified,
        "counts": report.counts(),
        "report": json.loads(report.to_json()),
    }
    meta = ctx._meta(evaluations=None, rows=len(report.verdicts))
    return verdict, meta


class LeaseTransport(Protocol):
    """What a :class:`Worker` turn needs from wherever its jobs live:
    :class:`QueueTransport` in-process (the server's ``/v1/work/*``
    handlers use it too) or :class:`~repro.service.remote.
    HttpTransport` over the wire.  Lease-mutating calls refuse a
    superseded lease with :class:`~repro.exceptions.StaleLeaseError`.
    """

    def claim(self, worker: str) -> Optional[Lease]: ...
    def drained(self) -> bool: ...
    def reap(self) -> None: ...
    def heartbeat(self, fingerprint: str, token: str) -> float: ...
    def progress(self, fingerprint: str, token: str,
                 event: Dict[str, Any]) -> None: ...
    def complete(self, fingerprint: str, token: str,
                 verdict: Dict[str, Any], meta: Dict[str, Any]
                 ) -> bool: ...
    def fail(self, fingerprint: str, token: str, error: str) -> None: ...
    def engine_store(self, fingerprint: str
                     ) -> ContextManager[CheckpointStore]: ...


class QueueTransport:
    """The in-process :class:`LeaseTransport`: queue + result cache.

    The one home of two lease rules: a claim looks the job up in the
    cache, and every verdict is cached *before* the ``complete``
    append (``put`` keeps an identical entry and refuses a differing
    one, a determinism violation).
    """

    def __init__(self, queue: JobQueue, cache: ResultCache, *,
                 store_lock_timeout: float = 10.0) -> None:
        self.queue = queue
        self.cache = cache
        self.store_lock_timeout = store_lock_timeout

    def claim(self, worker: str) -> Optional[Lease]:
        lease = self.queue.claim(worker)
        if lease is None:
            return None
        cached = self.cache.get_entry(lease.fingerprint)
        if cached is None:
            return lease
        return dataclasses.replace(lease,
                                   cached_verdict=cached["verdict"])

    def drained(self) -> bool:
        return self.queue.drained

    def reap(self) -> None:
        self.queue.reap_expired()

    def heartbeat(self, fingerprint: str, token: str) -> float:
        return self.queue.heartbeat(fingerprint, token)

    def progress(self, fingerprint: str, token: str,
                 event: Dict[str, Any]) -> None:
        # Unchecked: an in-process holder is supervised, and the
        # token check would cost a locked lease read per event.
        self.queue.record_progress(fingerprint, event)

    def complete(self, fingerprint: str, token: str,
                 verdict: Dict[str, Any],
                 meta: Dict[str, Any]) -> bool:
        self.cache.put(fingerprint, verdict, meta=meta)
        return self.queue.complete(fingerprint, token, verdict,
                                   meta=meta)

    def fail(self, fingerprint: str, token: str, error: str) -> None:
        self.queue.fail(fingerprint, token, error)

    @contextlib.contextmanager
    def engine_store(self, fingerprint: str
                     ) -> Iterator[CheckpointStore]:
        """The job's own engine journal, under its owner lock."""
        store = self.queue.job_store(fingerprint).substore("engine")
        with store.exclusive(timeout=self.store_lock_timeout):
            yield store


class _Heartbeat(threading.Thread):
    """Renews the lease on a daemon thread until stopped or stale.

    A refused renewal — the lease was re-issued, or the job passed
    its hard deadline by the queue's clock — sets ``stale``, ends the
    thread and makes the turn abandon its attempt, so a hung worker
    loses its lease.  Any other error is a missed beat, and renewal
    goes on.
    """

    def __init__(self, transport: LeaseTransport, lease: Lease,
                 interval: float) -> None:
        super().__init__(daemon=True)
        self.transport = transport
        self.lease = lease
        self.interval = interval
        self.stop_event = threading.Event()
        self.stale = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval):
            try:
                self.transport.heartbeat(self.lease.fingerprint,
                                         self.lease.token)
            except StaleLeaseError:
                self.stale.set()
                break
            except ServiceError:
                continue

    def stop(self) -> None:
        self.stop_event.set()


class Worker:
    """Executes queue jobs over a :class:`LeaseTransport`.

    One instance per worker process, thread or remote host; its
    lifetime tallies feed soak audits.  A ``chaos`` plan acts on the
    transport's queue, so it needs a :class:`QueueTransport`.
    """

    def __init__(self, transport: LeaseTransport, *,
                 name: str = "worker",
                 heartbeat_interval: Optional[float] = None,
                 runtime: Optional[RuntimePolicy] = None,
                 chaos: Optional[ServiceChaosPlan] = None) -> None:
        self.transport = transport
        self.name = name
        self.heartbeat_interval = heartbeat_interval
        self.runtime = runtime
        self.chaos = chaos
        self.claims = 0
        self.completions = 0
        self.duplicates = 0
        self.cache_hits = 0
        self.failures = 0
        self.stale_abandons = 0

    # -- chaos -------------------------------------------------------

    def _chaos(self, lease: Lease, hook: str, at: int = 0) -> None:
        if self.chaos is None:
            return
        event = self.chaos.match(lease.submit_index, lease.attempt,
                                 hook, at)
        if event is not None:
            self.chaos.fire(event, self.transport.queue,
                            lease.fingerprint)

    # -- the worker turn ---------------------------------------------

    def run_once(self) -> Optional[str]:
        """Claim and drive one job to a queue transition.

        Returns the fingerprint acted on, or None when no job was
        due.  Never raises for per-job failures — those are recorded
        in the queue (retry or dead-letter); a stale lease abandons
        the attempt silently, since the new holder owns the job.
        Only infrastructure damage (a corrupt mid-journal, an
        unusable queue directory) escapes as
        :class:`~repro.exceptions.RuntimeIntegrityError`.
        """
        lease = self.transport.claim(self.name)
        if lease is None:
            return None
        self.claims += 1
        fingerprint, token = lease.fingerprint, lease.token
        try:
            self._chaos(lease, "start")
            if lease.cached_verdict is not None:
                self.cache_hits += 1
                event = {"cache_hit": True, "worker": self.name,
                         "attempt": lease.attempt}
                self.transport.progress(fingerprint, token, event)
                verdict = lease.cached_verdict
                meta = {**event, "evaluations": 0}
            else:
                verdict, meta = self._execute(lease)
            recorded = self.transport.complete(fingerprint, token,
                                               verdict, meta)
            self.completions += 1
            if not recorded:
                self.duplicates += 1
        except StaleLeaseError:
            self.stale_abandons += 1
        except Exception as exc:  # noqa: BLE001 - typed into queue
            self.failures += 1
            try:
                self.transport.fail(fingerprint, token,
                                    f"{type(exc).__name__}: {exc}")
            except StaleLeaseError:
                pass
        return fingerprint

    def run_until_drained(self, poll: float = 0.05,
                          timeout: float = 300.0,
                          reap: bool = True) -> int:
        """Claim until every job is terminal; returns acting turns.

        Optionally reaps expired leases between turns (a forked pool's
        supervisor does that instead; the HTTP server reaps on every
        claim).
        """
        turns = 0
        deadline = time.monotonic() + timeout
        while True:
            if reap:
                self.transport.reap()
            if self.run_once() is not None:
                turns += 1
                continue
            if self.transport.drained():
                return turns
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"worker {self.name!r} drain timed out after "
                    f"{timeout:g}s"
                )
            time.sleep(poll)

    # -- execution dispatch ------------------------------------------

    def _execute(self, lease: Lease
                 ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        interval = self.heartbeat_interval
        if interval is None:
            interval = max(0.05,
                           (lease.expires_at - lease.claimed_at) / 3.0)
        heartbeat = _Heartbeat(self.transport, lease, interval)
        heartbeat.start()
        try:
            with self.transport.engine_store(lease.fingerprint) \
                    as store:
                result = execute_job(ExecutionContext(
                    spec=lease.spec, store=store, worker=self.name,
                    attempt=lease.attempt, runtime=self.runtime,
                    stream=lambda event: self.transport.progress(
                        lease.fingerprint, lease.token, event),
                    on_batch=lambda at: self._chaos(lease, "batch",
                                                    at=at)))
        finally:
            heartbeat.stop()
        if heartbeat.stale.is_set():
            raise StaleLeaseError(
                f"lease for job {lease.fingerprint[:12]}… went "
                "stale during execution; abandoning the attempt"
            )
        return result
