"""The network submission front-end: asyncio + bare HTTP/1.1.

:class:`CertificationServer` exposes the on-disk
:class:`~repro.service.JobQueue` over a deliberately tiny HTTP/1.1
surface (stdlib only — ``asyncio`` plus a hand-rolled request
parser, no framework, no new dependency)::

    GET  /v1/health                liveness + queue depth + fleet
    GET  /v1/stats                 ServiceStats + network tallies
    POST /v1/jobs                  submit a JobSpec (idempotent)
    GET  /v1/jobs/<fp>             replay-derived job status
    GET  /v1/jobs/<fp>/result      terminal verdict (409 while live)
    GET  /v1/jobs/<fp>/progress    streamed progress events
    GET  /v1/watch/<fp>            long-poll progress (cursor-based)
    POST /v1/jobs/<fp>/cancel      cancel a pending job
    POST /v1/sweeps                submit a SweepSpec (decomposed)
    GET  /v1/sweeps/<fp>           journaled merge of the sweep

plus the **authenticated worker-fleet surface** (HMAC shared-secret
headers, :mod:`repro.service.auth`; unauthenticated or garbled
tokens are refused with typed 401/403)::

    POST /v1/work/claim            claim the oldest runnable job
    POST /v1/work/heartbeat        renew a lease (409 when stale)
    POST /v1/work/progress         append one progress event
    POST /v1/work/complete         record the verdict (idempotent)
    POST /v1/work/fail             record a failed attempt

Every fleet mutation carries the lease token issued at claim, so a
partitioned or zombie worker's late write is refused server-side
exactly as ``StaleLeaseError`` refuses it in-process — and a
*retried* complete under the still-valid token is absorbed
idempotently, never journaled twice.

``/v1/watch/<fp>?cursor=N&wait=S`` holds the connection until
progress events past ``cursor`` arrive (or the job goes terminal, or
``wait`` elapses — a zero-event timeout returns an *empty page*, not
a hang).  The cursor is the index into the job's journaled progress
records, so a watch torn by a disconnect or a server restart resumes
exactly where it left off.

Two properties carry the fault-tolerance story:

* **Idempotent submission.**  A job's identity is the SHA-256
  fingerprint of its canonical spec, computed identically on client
  and server.  A retried, duplicated or replayed ``POST /v1/jobs``
  lands on the same fingerprint and the queue's content-addressed
  dedup makes it a no-op — which is what lets the client resubmit
  blindly after any network fault and still be exactly-once.
* **Digest-enveloped responses.**  Every response body is
  ``{"payload": ..., "sha256": SHA-256(canonical payload)}``.  A
  response garbled in flight fails the client's digest check and is
  retried; a corrupted verdict is never *believed*, mirroring the
  ResultCache's never-serve-corrupt rule on the wire.

Faults come from the fronted service's
:class:`~repro.runtime.chaos.FaultPlan`: its ``net`` faults at exact
(op, request index) coordinates and its ``fleet`` faults at (worker,
request index), keeping network soaks as reproducible as worker
soaks.  The server itself holds no state — every request
replays the journals — so killing and restarting it mid-campaign
loses nothing.
"""

from __future__ import annotations

import asyncio
import threading
import urllib.parse
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.exceptions import (
    AuthenticationError,
    AuthorizationError,
    CheckpointError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    StaleLeaseError,
)
from repro.service.auth import verify_request
from repro.service.jobs import JobSpec
from repro.service.sweep import (
    SweepSpec,
    load_sweep,
    merge_sweep,
    submit_sweep,
)
from repro.service.cache import verdict_digest
from repro.service.worker import QueueTransport

import json

_MAX_BODY = 4 * 1024 * 1024  # a spec is small; cap abuse
_FINGERPRINT_LEN = 64

#: The lease-mutating fleet verbs (``POST /v1/work/<verb>``, op
#: ``work_<verb>``), which require fleet authentication.
_WORK_VERBS = ("claim", "heartbeat", "progress", "complete", "fail")
_WORK_OPS = frozenset(f"work_{verb}" for verb in _WORK_VERBS)

#: A long-poll watch re-reads the journal this often (seconds)...
WATCH_POLL = 0.05
#: ...and holds a quiet request at most this long, whatever it asks.
WATCH_MAX_WAIT = 30.0


def envelope(payload: Any) -> bytes:
    """Serialise one digest-enveloped response body."""
    digest = verdict_digest("payload", payload)
    return json.dumps({"payload": payload,
                       "sha256": digest}).encode("utf-8")


def open_envelope(body: bytes) -> Any:
    """Verify and unwrap a response body; typed error on damage."""
    try:
        record = json.loads(body.decode("utf-8"))
        payload = record["payload"]
        stored = record["sha256"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) \
            as exc:
        raise ServiceError(
            f"response envelope is unreadable or truncated: {exc}"
        ) from exc
    if stored != verdict_digest("payload", payload):
        raise ServiceError(
            "response envelope failed its integrity digest "
            "(garbled in flight)"
        )
    return payload


class CertificationServer:
    """Serves one :class:`~repro.service.CertificationService`.

    Start with :meth:`start` (spawns a daemon thread running its own
    asyncio loop, binds, returns the address) or embed the coroutine
    :meth:`serve` in an existing loop.  The server is safe to run
    beside in-process and forked workers: all queue access goes
    through the same advisory-locked journals.
    """

    def __init__(self, service, host: str = "127.0.0.1",
                 port: int = 0, *,
                 merge_lock_timeout: float = 30.0,
                 worker_secret: Optional[str] = None,
                 busy_retry_after: float = 0.25) -> None:
        self.service = service
        #: The fleet endpoints' lease rules: the in-process transport.
        self.leases = QueueTransport(service.queue, service.cache)
        self.host = host
        self.port = port
        self.merge_lock_timeout = merge_lock_timeout
        self.worker_secret = worker_secret
        self.busy_retry_after = float(busy_retry_after)
        self.request_counts: Dict[str, int] = {}
        #: worker name → lifetime authenticated-request tally, and
        #: (worker, op) → per-op tally: the fleet's connection ledger
        #: (/v1/health reports it; fleet chaos addresses by it).
        self.worker_requests: Dict[str, int] = {}
        self.worker_op_requests: Dict[Tuple[str, str], int] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------

    async def serve(self) -> None:
        """Bind and serve until :meth:`close` (or cancellation)."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Run the server on a daemon thread; returns (host, port)."""
        if self._thread is not None:
            raise ServiceError("server already started")

        def _main() -> None:
            try:
                asyncio.run(self.serve())
            except BaseException as exc:  # surfaced via start()
                self._startup_error = exc
                self._ready.set()

        self._thread = threading.Thread(
            target=_main, name="certification-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServiceError(
                f"server did not bind within {timeout:g}s"
            )
        if self._startup_error is not None:
            raise ServiceError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def close(self, timeout: float = 10.0) -> None:
        """Stop serving and join the thread (idempotent)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "CertificationServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request handling --------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, body, headers = request
            op, responder = self._route(method, path, body, headers)
            worker: Optional[str] = None
            if op in _WORK_OPS:
                worker = self._authenticate(method, path, body,
                                            headers)
                dropped = await self._fleet_chaos(worker, op)
                if dropped:
                    # Partitioned: the request never arrived, so it
                    # takes no op index and fires no net fault.
                    return
            index = self.request_counts.get(op, 0)
            self.request_counts[op] = index + 1
            plan = self.service.chaos
            faults = (plan.match("net", op, index)
                      if plan is not None else [])
            kinds = {fault.kind for fault in faults}
            status, payload = await self._run_responder(responder,
                                                        worker)
            if "duplicate" in kinds:
                # An at-least-once delivery duplicate: the same
                # request is processed a second time, and the second
                # outcome is what the client sees.  Idempotent
                # submission makes both outcomes agree.
                status, payload = await self._run_responder(responder,
                                                            worker)
            if "drop" in kinds:
                return  # not one response byte
            for fault in faults:
                if fault.kind == "delay":
                    await asyncio.sleep(fault.seconds)
            blob = envelope(payload)
            garble = "garble" in kinds
            cut = len(blob) // 2 if "disconnect" in kinds else None
            await self._respond(writer, status, blob,
                                garble=garble, cut=cut)
        except ConnectionError:
            pass
        except AuthenticationError as exc:
            await self._try_respond(writer, 401, self._typed(exc))
        except AuthorizationError as exc:
            await self._try_respond(writer, 403, self._typed(exc))
        except StaleLeaseError as exc:
            # A late write from a partitioned/zombie holder: a
            # deterministic refusal, not a server fault — 409 so the
            # client does not retry it.
            await self._try_respond(writer, 409, self._typed(exc))
        except ServiceUnavailableError as exc:
            await self._try_respond(
                writer, 503, self._typed(exc),
                extra_headers={"Retry-After":
                               f"{exc.retry_after:g}"})
        except ReproError as exc:
            await self._try_respond(writer, 500, self._typed(exc))
        except Exception as exc:  # noqa: BLE001 - typed to client
            await self._try_respond(writer, 500,
                                    {"error": f"internal error: "
                                              f"{type(exc).__name__}:"
                                              f" {exc}",
                                     "error_type":
                                         type(exc).__name__})
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    def _typed(exc: BaseException) -> Dict[str, Any]:
        """Error payload carrying the exception type for clients."""
        return {"error": f"{type(exc).__name__}: {exc}",
                "error_type": type(exc).__name__}

    @staticmethod
    async def _run_responder(responder, worker: Optional[str] = None
                             ) -> Tuple[int, Dict[str, Any]]:
        result = responder(worker) if worker is not None \
            else responder()
        if asyncio.iscoroutine(result):
            result = await result
        return result

    def _authenticate(self, method: str, path: str, body: bytes,
                      headers: Mapping[str, str]) -> str:
        """Verify the fleet token; tallies and returns the worker."""
        if self.worker_secret is None:
            raise AuthenticationError(
                "this server has no fleet secret configured; the "
                "/v1/work surface is disabled"
            )
        worker = verify_request(self.worker_secret, method, path,
                                headers, body)
        self.worker_requests[worker] = \
            self.worker_requests.get(worker, 0) + 1
        return worker

    async def _fleet_chaos(self, worker: str, op: str) -> bool:
        """Fire the plan's ``fleet`` faults; True = drop the request."""
        op_index = self.worker_op_requests.get((worker, op), 0)
        self.worker_op_requests[(worker, op)] = op_index + 1
        plan = self.service.chaos
        if plan is None:
            return False
        total_index = self.worker_requests.get(worker, 1) - 1
        faults = (plan.match("fleet", worker, total_index)
                  + plan.match("fleet", f"{worker}/{op}", op_index))
        for fault in faults:
            if fault.kind == "delay":
                # Delay *processing*, so the request lands late by
                # the server's clock — the zombie coordinate.
                await asyncio.sleep(fault.seconds)
        return any(fault.kind == "partition" for fault in faults)

    async def _read_request(
            self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes, Dict[str, str]]]:
        line = await reader.readline()
        if not line.strip():
            return None
        try:
            method, path, _version = \
                line.decode("latin-1").strip().split(" ", 2)
        except ValueError:
            raise ServiceError(f"malformed request line {line!r}")
        length = 0
        headers: Dict[str, str] = {}
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise ServiceError(
                        f"bad Content-Length {value.strip()!r}"
                    )
        if length > _MAX_BODY:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY}-byte cap"
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body, headers

    async def _respond(self, writer: asyncio.StreamWriter,
                       status: int, blob: bytes, *,
                       garble: bool = False,
                       cut: Optional[int] = None,
                       extra_headers: Optional[Dict[str, str]] = None
                       ) -> None:
        if garble and blob:
            # Flip one byte inside the payload region so the HTTP
            # framing survives but the envelope digest cannot.
            at = min(len(blob) - 2, len(blob) // 2)
            blob = blob[:at] + bytes([blob[at] ^ 0x01]) + \
                blob[at + 1:]
        reason = {200: "OK", 400: "Bad Request",
                  401: "Unauthorized", 403: "Forbidden",
                  404: "Not Found", 409: "Conflict",
                  500: "Internal Server Error",
                  503: "Service Unavailable"}
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in
                        (extra_headers or {}).items())
        head = (f"HTTP/1.1 {status} {reason.get(status, 'Status')}"
                f"\r\nContent-Type: application/json"
                f"\r\nContent-Length: {len(blob)}"
                f"\r\n{extra}"
                f"Connection: close\r\n\r\n").encode("latin-1")
        if cut is not None:
            # Disconnect chaos: some bytes, then a torn connection.
            writer.write(head + blob[:cut])
            await writer.drain()
            writer.transport.abort()
            return
        writer.write(head + blob)
        await writer.drain()

    async def _try_respond(self, writer, status, payload,
                           extra_headers=None) -> None:
        try:
            await self._respond(writer, status, envelope(payload),
                                extra_headers=extra_headers)
        except (ConnectionError, OSError):
            pass

    # -- routing -----------------------------------------------------

    def _route(self, method: str, path: str, body: bytes,
               headers: Mapping[str, str]):
        """Map a request to (op name, zero-arg responder)."""
        bare, _, query_text = path.partition("?")
        query = urllib.parse.parse_qs(query_text)
        parts = [part for part in bare.split("/") if part]
        if parts[:1] != ["v1"]:
            return "health", lambda: (
                404, {"error": f"unknown path {path!r}"})
        rest = parts[1:]
        if rest == ["health"] and method == "GET":
            return "health", self._get_health
        if rest == ["stats"] and method == "GET":
            return "stats", self._get_stats
        if rest == ["jobs"] and method == "POST":
            return "submit", lambda: self._post_job(body)
        if len(rest) >= 2 and rest[0] == "jobs":
            fingerprint = rest[1]
            if len(rest) == 2 and method == "GET":
                return "status", \
                    lambda: self._get_status(fingerprint)
            if rest[2:] == ["result"] and method == "GET":
                return "result", \
                    lambda: self._get_result(fingerprint)
            if rest[2:] == ["progress"] and method == "GET":
                return "progress", \
                    lambda: self._get_progress(fingerprint)
            if rest[2:] == ["cancel"] and method == "POST":
                return "cancel", \
                    lambda: self._post_cancel(fingerprint)
        if len(rest) == 2 and rest[0] == "watch" and \
                method == "GET":
            return "watch", \
                lambda: self._get_watch(rest[1], query)
        if len(rest) == 2 and rest[0] == "work" and \
                method == "POST" and rest[1] in _WORK_VERBS:
            responder = getattr(self, f"_post_work_{rest[1]}")
            # The worker identity is injected post-auth by
            # _run_responder; _WORK_OPS routing guarantees it.
            return f"work_{rest[1]}", \
                lambda worker=None: responder(body, worker)
        if rest == ["sweeps"] and method == "POST":
            return "sweep_submit", lambda: self._post_sweep(body)
        if len(rest) == 2 and rest[0] == "sweeps" and \
                method == "GET":
            return "sweep_status", \
                lambda: self._get_sweep(rest[1])
        return "health", lambda: (
            404, {"error": f"no route for {method} {path!r}"})

    @staticmethod
    def _parse_body(body: bytes) -> Dict[str, Any]:
        try:
            data = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ServiceError(
                f"request body is not valid JSON: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ServiceError("request body must be a JSON object")
        return data

    # -- endpoint handlers -------------------------------------------

    def _get_health(self) -> Tuple[int, Dict[str, Any]]:
        counts = self.service.counts()
        return 200, {
            "ok": True,
            "counts": counts,
            "queue_depth": counts.get("pending", 0),
            "active_leases": len(self.service.queue.leases()),
            "workers": dict(sorted(self.worker_requests.items())),
            "drained": (counts.get("pending", 0)
                        + counts.get("running", 0)) == 0,
        }

    def _get_stats(self) -> Tuple[int, Dict[str, Any]]:
        counts = self.service.counts()
        return 200, {
            "service": self.service.stats().to_json_dict(),
            "net": {
                "requests": dict(sorted(
                    self.request_counts.items())),
                "chaos_fired": (self.service.chaos.fired
                                if self.service.chaos else 0),
            },
            "fleet": {
                "queue_depth": counts.get("pending", 0),
                "active_leases": len(self.service.queue.leases()),
                "workers": dict(sorted(
                    self.worker_requests.items())),
                "worker_ops": {
                    f"{worker}:{op}": count
                    for (worker, op), count in sorted(
                        self.worker_op_requests.items())},
            },
        }

    def _post_job(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        try:
            data = self._parse_body(body)
            spec = JobSpec.create(str(data.get("kind", "")),
                                  **dict(data.get("params", {})))
        except ServiceError as exc:
            return 400, {"error": str(exc)}
        existing = self.service.queue.status(spec.fingerprint)
        deduplicated = (existing is not None
                        and not existing.terminal)
        fingerprint = self.service.submit(spec)
        status = self.service.status(fingerprint)
        return 200, {
            "fingerprint": fingerprint,
            "state": status.state if status else "pending",
            "deduplicated": deduplicated,
        }

    def _lookup(self, fingerprint: str):
        if len(fingerprint) != _FINGERPRINT_LEN:
            return None
        return self.service.status(fingerprint)

    def _get_status(self, fingerprint: str
                    ) -> Tuple[int, Dict[str, Any]]:
        status = self._lookup(fingerprint)
        if status is None:
            return 404, {"error": f"unknown job "
                                  f"{fingerprint[:12]}…"}
        return 200, status.to_json_dict()

    def _get_result(self, fingerprint: str
                    ) -> Tuple[int, Dict[str, Any]]:
        status = self._lookup(fingerprint)
        if status is None:
            return 404, {"error": f"unknown job "
                                  f"{fingerprint[:12]}…"}
        if not status.terminal:
            return 409, {"fingerprint": fingerprint,
                         "state": status.state,
                         "error": "job is not terminal yet"}
        return 200, {
            "fingerprint": fingerprint,
            "state": status.state,
            "verdict": status.verdict,
            "error": status.error,
            "meta": status.meta,
        }

    def _get_progress(self, fingerprint: str
                      ) -> Tuple[int, Dict[str, Any]]:
        status = self._lookup(fingerprint)
        if status is None:
            return 404, {"error": f"unknown job "
                                  f"{fingerprint[:12]}…"}
        return 200, {
            "fingerprint": fingerprint,
            "events": self.service.queue.progress(fingerprint),
        }

    def _post_cancel(self, fingerprint: str
                     ) -> Tuple[int, Dict[str, Any]]:
        status = self._lookup(fingerprint)
        if status is None:
            return 404, {"error": f"unknown job "
                                  f"{fingerprint[:12]}…"}
        try:
            cancelled = self.service.queue.cancel(fingerprint)
        except ServiceError as exc:
            return 409, {"fingerprint": fingerprint,
                         "state": status.state,
                         "error": str(exc)}
        return 200, {"fingerprint": fingerprint,
                     "state": cancelled.state}

    def _post_sweep(self, body: bytes
                    ) -> Tuple[int, Dict[str, Any]]:
        try:
            sweep = SweepSpec.from_json_dict(self._parse_body(body))
        except ServiceError as exc:
            return 400, {"error": str(exc)}
        return 200, submit_sweep(self.service, sweep)

    def _get_sweep(self, fingerprint: str
                   ) -> Tuple[int, Dict[str, Any]]:
        sweep = load_sweep(self.service, fingerprint)
        if sweep is None:
            return 404, {"error": f"unknown sweep "
                                  f"{fingerprint[:12]}…"}
        try:
            merged = merge_sweep(
                self.service, sweep,
                lock_timeout=self.merge_lock_timeout)
        except CheckpointError as exc:
            if "advisory lock" not in str(exc):
                raise
            # The merge journal's advisory lock is contended (another
            # merge in flight): a transient condition, so answer 503
            # with Retry-After instead of surfacing it as damage.
            raise ServiceUnavailableError(
                f"sweep {fingerprint[:12]}… merge is contended: "
                f"{exc}", retry_after=self.busy_retry_after
            ) from exc
        return 200, merged

    # -- streaming watch ---------------------------------------------

    async def _get_watch(self, fingerprint: str,
                         query: Dict[str, Any]
                         ) -> Tuple[int, Dict[str, Any]]:
        if self._lookup(fingerprint) is None:
            return 404, {"error": f"unknown job "
                                  f"{fingerprint[:12]}…"}
        try:
            cursor = int(query.get("cursor", ["0"])[0])
            wait = float(query.get("wait", ["10"])[0])
        except (ValueError, IndexError):
            return 400, {"error": "watch cursor/wait must be "
                                  "numeric"}
        cursor = max(0, cursor)
        wait = min(max(0.0, wait), WATCH_MAX_WAIT)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + wait
        while True:
            # Status *before* events: progress writes precede the
            # terminal journal append in every worker, so a terminal
            # status read first guarantees the events read after it
            # are complete — the reverse order could report terminal
            # while missing the final page.
            status = self.service.status(fingerprint)
            events = self.service.queue.progress(fingerprint)
            page = events[cursor:]
            terminal = status is not None and status.terminal
            if page or terminal or loop.time() >= deadline:
                return 200, {
                    "fingerprint": fingerprint,
                    "cursor": cursor + len(page),
                    "events": page,
                    "terminal": terminal,
                    "state": (status.state if status is not None
                              else "unknown"),
                }
            await asyncio.sleep(WATCH_POLL)

    # -- worker-fleet endpoints --------------------------------------

    def _lease_args(self, body: bytes) -> Tuple[Dict[str, Any], str,
                                                str]:
        data = self._parse_body(body)
        return (data, str(data.get("fingerprint", "")),
                str(data.get("token", "")))

    def _post_work_claim(self, body: bytes, worker: str
                         ) -> Tuple[int, Dict[str, Any]]:
        # Reap lazily on every claim: remote fleets have no local
        # supervisor loop, so the server itself returns abandoned
        # leases to pending before handing out work.
        self.leases.reap()
        lease = self.leases.claim(worker)
        if lease is None:
            return 200, {"lease": None,
                         "drained": self.leases.drained()}
        return 200, {"lease": lease.to_json_dict(), "drained": False}

    def _post_work_heartbeat(self, body: bytes, worker: str
                             ) -> Tuple[int, Dict[str, Any]]:
        _, fingerprint, token = self._lease_args(body)
        expires_at = self.leases.heartbeat(fingerprint, token)
        return 200, {"fingerprint": fingerprint,
                     "expires_at": expires_at}

    def _post_work_progress(self, body: bytes, worker: str
                            ) -> Tuple[int, Dict[str, Any]]:
        data, fingerprint, token = self._lease_args(body)
        # Token-checked, unlike the in-process transport's append: a
        # partitioned holder must not stream into a re-issued job.
        self.service.queue.record_progress_checked(
            fingerprint, token, dict(data.get("event", {})))
        return 200, {"fingerprint": fingerprint, "recorded": True}

    def _post_work_complete(self, body: bytes, worker: str
                            ) -> Tuple[int, Dict[str, Any]]:
        data, fingerprint, token = self._lease_args(body)
        recorded = self.leases.complete(
            fingerprint, token, dict(data.get("verdict", {})),
            dict(data.get("meta", {})))
        return 200, {"fingerprint": fingerprint,
                     "recorded": recorded,
                     "duplicate": not recorded}

    def _post_work_fail(self, body: bytes, worker: str
                        ) -> Tuple[int, Dict[str, Any]]:
        data, fingerprint, token = self._lease_args(body)
        self.leases.fail(fingerprint, token,
                         str(data.get("error", "")))
        return 200, {"fingerprint": fingerprint, "recorded": True}


__all__ = [
    "CertificationServer",
    "envelope",
    "open_envelope",
]
