"""Fault-tolerant client for the certification server.

:class:`ServiceClient` wraps the :mod:`repro.service.net` HTTP
surface with the full robustness kit, so callers see exactly-once
semantics over an arbitrarily unreliable network:

* **per-request timeouts** — every socket operation is bounded; a
  dropped request or a stalled server turns into a typed retry, not
  a hang;
* **bounded exponential backoff with deterministic jitter** — retry
  schedules reuse :func:`repro.runtime.backoff_delay`, hashed
  from (request key, attempt), so a soak's retry timing is exactly
  reproducible;
* **automatic reconnect** — every attempt opens a fresh connection;
  a half-closed or reset socket from a previous attempt can never
  poison the next one;
* **response integrity** — bodies are digest-enveloped
  (:func:`repro.service.net.open_envelope`); a response garbled in
  flight fails its digest and is retried, never believed;
* **safe resubmission** — the client computes each spec's SHA-256
  fingerprint locally before submitting and verifies the server
  agreed.  Because submission is content-addressed and idempotent
  server-side, *any* request may be retried blindly after *any*
  fault — timeout, drop, disconnect, garble, duplicate — and the
  job is still enqueued exactly once.  That reduction of
  exactly-once delivery to at-least-once delivery plus
  content-addressed dedup is the client's load-bearing design.

Retryable faults: connection errors, timeouts, torn/garbled
responses, HTTP 5xx.  A 503 carrying ``Retry-After`` is retried *at
the server's requested pace* (the server knows its own lock
contention better than the client's backoff curve does).  Typed
client errors (4xx) are *not* retried — they are deterministic
verdicts about the request itself; 401/403/409 re-raise as their
original exception types
(:class:`~repro.exceptions.AuthenticationError` /
:class:`~repro.exceptions.AuthorizationError` /
:class:`~repro.exceptions.StaleLeaseError`) so remote callers can
react exactly as in-process ones do.

With an :class:`~repro.service.auth.WorkerAuth`, the client also
speaks the authenticated ``/v1/work/*`` fleet surface and the
long-poll :meth:`ServiceClient.watch` generator replaces
poll-loop waiting with cursor-resumable streaming.
"""

from __future__ import annotations

import http.client
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.exceptions import (
    AuthenticationError,
    AuthorizationError,
    ServiceError,
    StaleLeaseError,
)
from repro.runtime import backoff_delay
from repro.service.auth import WorkerAuth
from repro.service.jobs import JobSpec
from repro.service.net import open_envelope
from repro.service.sweep import SweepSpec

import json

#: Exceptions that mean "the network ate it; retry on a fresh
#: connection".  ``OSError`` covers refused/reset/unreachable;
#: ``http.client.HTTPException`` covers torn status lines and
#: truncated chunked reads.
_RETRYABLE = (OSError, socket.timeout, TimeoutError,
              http.client.HTTPException)

#: Server error_type → the exception class it re-raises as
#: client-side, so remote and in-process callers share one handling
#: path for auth refusals and stale-lease refusals.
_TYPED_ERRORS = {
    "AuthenticationError": AuthenticationError,
    "AuthorizationError": AuthorizationError,
    "StaleLeaseError": StaleLeaseError,
}


@dataclass
class ClientStats:
    """What the robustness machinery actually did, for audits."""

    requests: int = 0
    attempts: int = 0
    retries: int = 0
    network_faults: int = 0
    garbled_responses: int = 0
    server_errors: int = 0
    unavailable_responses: int = 0
    retry_after_honored: int = 0
    deduplicated_submissions: int = 0
    backoff_seconds: float = 0.0
    fault_log: List[str] = field(default_factory=list)

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "attempts": self.attempts,
            "retries": self.retries,
            "network_faults": self.network_faults,
            "garbled_responses": self.garbled_responses,
            "server_errors": self.server_errors,
            "unavailable_responses": self.unavailable_responses,
            "retry_after_honored": self.retry_after_honored,
            "deduplicated_submissions":
                self.deduplicated_submissions,
            "backoff_seconds": round(self.backoff_seconds, 6),
        }


class ServiceClient:
    """One server address, arbitrarily many safe requests."""

    def __init__(self, host: str, port: int, *,
                 timeout: float = 10.0,
                 max_attempts: int = 6,
                 backoff_base: float = 0.05,
                 backoff_factor: float = 2.0,
                 backoff_jitter: float = 0.1,
                 backoff_cap: float = 2.0,
                 auth: Optional[WorkerAuth] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if max_attempts < 1:
            raise ServiceError(
                f"client max_attempts must be >= 1, got "
                f"{max_attempts}"
            )
        if backoff_cap <= 0.0:
            raise ServiceError(
                f"backoff_cap must be > 0, got {backoff_cap!r}"
            )
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_factor = float(backoff_factor)
        self.backoff_jitter = float(backoff_jitter)
        self.backoff_cap = float(backoff_cap)
        self.auth = auth
        self.sleep = sleep
        self.stats = ClientStats()

    # -- transport ---------------------------------------------------

    def _once(self, method: str, path: str, body: Optional[bytes]
              ) -> "tuple[int, Any, Optional[str]]":
        """One attempt on one fresh connection (reconnect-by-design)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Content-Type": "application/json",
                       "Connection": "close"}
            if self.auth is not None:
                headers.update(self.auth.headers(method, path, body))
            connection.request(method, path, body=body,
                               headers=headers)
            response = connection.getresponse()
            blob = response.read()
            return (response.status, open_envelope(blob),
                    response.getheader("Retry-After"))
        finally:
            connection.close()

    def _request(self, method: str, path: str,
                 payload: Optional[Dict[str, Any]] = None
                 ) -> "tuple[int, Any]":
        """Retry loop: timeouts, reconnects, backoff, digest checks.

        Every request through here is idempotent end to end (reads
        trivially; submits/cancels by content-addressing; fleet
        mutations by lease token), so a retry after an *ambiguous*
        failure — the request may or may not have been processed —
        is always safe.

        Backoff is capped at ``backoff_cap`` so a long retry chain
        stays bounded instead of growing exponentially forever, and
        a 503's ``Retry-After`` hint overrides the computed delay
        (still under the cap): the server is asking for a specific
        pace and gets it.
        """
        body = json.dumps(payload).encode("utf-8") \
            if payload is not None else None
        self.stats.requests += 1
        request_key = f"{method} {path}"
        faults: List[str] = []
        for attempt in range(1, self.max_attempts + 1):
            self.stats.attempts += 1
            retry_hint: Optional[float] = None
            try:
                status, answer, retry_after = \
                    self._once(method, path, body)
            except _RETRYABLE as exc:
                self.stats.network_faults += 1
                faults.append(f"attempt {attempt}: "
                              f"{type(exc).__name__}: {exc}")
            except ServiceError as exc:
                # Envelope digest failure: the bytes arrived but
                # cannot be trusted; same retry path as a drop.
                self.stats.garbled_responses += 1
                faults.append(f"attempt {attempt}: {exc}")
            else:
                if status == 503:
                    self.stats.unavailable_responses += 1
                    faults.append(f"attempt {attempt}: HTTP 503: "
                                  f"{answer!r}")
                    try:
                        retry_hint = float(retry_after) \
                            if retry_after else None
                    except ValueError:
                        retry_hint = None
                elif status >= 500:
                    self.stats.server_errors += 1
                    faults.append(f"attempt {attempt}: HTTP "
                                  f"{status}: {answer!r}")
                else:
                    return status, answer
            if attempt == self.max_attempts:
                break
            self.stats.retries += 1
            delay = backoff_delay(
                request_key, attempt, self.backoff_base,
                self.backoff_factor, self.backoff_jitter)
            if retry_hint is not None:
                self.stats.retry_after_honored += 1
                delay = retry_hint
            delay = min(delay, self.backoff_cap)
            self.stats.backoff_seconds += delay
            self.sleep(delay)
        self.stats.fault_log.extend(faults)
        raise ServiceError(
            f"request {request_key!r} failed after "
            f"{self.max_attempts} attempts: {'; '.join(faults)}"
        )

    @staticmethod
    def _expect(status: int, answer: Any,
                ok=(200,)) -> Dict[str, Any]:
        if status not in ok:
            if isinstance(answer, dict):
                # Re-raise the server's typed refusal as its
                # original exception class (401 → Authentication,
                # 403 → Authorization, 409 → StaleLease) so remote
                # callers handle it exactly as in-process ones.
                error_class = _TYPED_ERRORS.get(
                    str(answer.get("error_type", "")))
                if error_class is not None:
                    raise error_class(str(answer.get("error", "")))
            error = answer.get("error", answer) \
                if isinstance(answer, dict) else answer
            raise ServiceError(
                f"server refused the request (HTTP {status}): "
                f"{error}"
            )
        if not isinstance(answer, dict):
            raise ServiceError(
                f"expected a JSON object payload, got "
                f"{type(answer).__name__}"
            )
        return answer

    # -- jobs --------------------------------------------------------

    def submit(self, spec: JobSpec) -> Dict[str, Any]:
        """Submit one job; exactly-once however flaky the network.

        The server must echo the locally-computed fingerprint — a
        mismatch means client and server disagree on the canonical
        spec encoding, which would silently break dedup, so it is a
        typed error, not a warning.
        """
        expected = spec.fingerprint
        status, answer = self._request(
            "POST", "/v1/jobs", spec.to_json_dict())
        receipt = self._expect(status, answer)
        if receipt.get("fingerprint") != expected:
            raise ServiceError(
                f"server fingerprinted the spec as "
                f"{str(receipt.get('fingerprint'))[:12]}…, client "
                f"computed {expected[:12]}…; canonicalisation "
                "disagreement breaks idempotent submission"
            )
        if receipt.get("deduplicated"):
            self.stats.deduplicated_submissions += 1
        return receipt

    def status(self, fingerprint: str) -> Dict[str, Any]:
        status, answer = self._request(
            "GET", f"/v1/jobs/{fingerprint}")
        return self._expect(status, answer)

    def result(self, fingerprint: str
               ) -> Optional[Dict[str, Any]]:
        """Terminal verdict payload, or None while the job is live."""
        status, answer = self._request(
            "GET", f"/v1/jobs/{fingerprint}/result")
        if status == 409:
            return None
        return self._expect(status, answer)

    def wait_result(self, fingerprint: str, *,
                    timeout: float = 120.0,
                    poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the job is terminal; typed error at timeout."""
        deadline = time.monotonic() + timeout
        while True:
            answer = self.result(fingerprint)
            if answer is not None:
                return answer
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {fingerprint[:12]}… still live after "
                    f"{timeout:g}s"
                )
            self.sleep(poll)

    def progress(self, fingerprint: str) -> List[Dict[str, Any]]:
        status, answer = self._request(
            "GET", f"/v1/jobs/{fingerprint}/progress")
        return list(self._expect(status, answer).get("events", []))

    def watch(self, fingerprint: str, *,
              timeout: float = 120.0,
              wait: float = 5.0,
              cursor: int = 0) -> Iterator[Dict[str, Any]]:
        """Stream progress events by long-poll until terminal.

        Replaces poll-loop waiting: each ``/v1/watch`` request holds
        the connection server-side until events past ``cursor``
        arrive, the job goes terminal, or ``wait`` elapses (an empty
        page, not an error).  The cursor indexes the job's journaled
        progress records, so a watch torn by a disconnect — or a
        server restart — resumes exactly where it left off; pass a
        starting ``cursor`` to resume an earlier watch.  Yields each
        event exactly once, in order; raises
        :class:`~repro.exceptions.ServiceError` if the job is still
        live at ``timeout``.
        """
        deadline = time.monotonic() + timeout
        position = max(0, int(cursor))
        while True:
            status, answer = self._request(
                "GET", f"/v1/watch/{fingerprint}"
                       f"?cursor={position}&wait={wait:g}")
            page = self._expect(status, answer)
            for event in page.get("events", []):
                yield event
            position = int(page.get("cursor", position))
            if page.get("terminal"):
                return
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"watch of job {fingerprint[:12]}… timed out "
                    f"after {timeout:g}s with the job still "
                    f"{page.get('state', 'unknown')}"
                )

    def cancel(self, fingerprint: str) -> Dict[str, Any]:
        status, answer = self._request(
            "POST", f"/v1/jobs/{fingerprint}/cancel")
        return self._expect(status, answer)

    # -- worker fleet ------------------------------------------------

    def work_claim(self) -> Dict[str, Any]:
        """Claim one job over the wire (requires ``auth``).

        Returns the server's ``{"lease": {...} | None, "drained":
        bool}`` payload; a present lease carries the spec, the lease
        token, expiry/deadline, and — on a cache hit — the cached
        verdict to complete with immediately.
        """
        status, answer = self._request("POST", "/v1/work/claim", {})
        return self._expect(status, answer)

    def work_heartbeat(self, fingerprint: str,
                       token: str) -> float:
        """Renew the lease; returns the new expiry.

        Raises :class:`~repro.exceptions.StaleLeaseError` when the
        lease was re-issued or the deadline passed — the remote
        holder must abandon the attempt, exactly as in-process.
        """
        status, answer = self._request(
            "POST", "/v1/work/heartbeat",
            {"fingerprint": fingerprint, "token": token})
        return float(self._expect(status, answer)["expires_at"])

    def work_progress(self, fingerprint: str, token: str,
                      event: Dict[str, Any]) -> None:
        """Append one progress event (token-checked server-side)."""
        status, answer = self._request(
            "POST", "/v1/work/progress",
            {"fingerprint": fingerprint, "token": token,
             "event": dict(event)})
        self._expect(status, answer)

    def work_complete(self, fingerprint: str, token: str,
                      verdict: Dict[str, Any],
                      meta: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
        """Record the verdict; idempotent under blind resubmission.

        The content-addressed verdict plus the lease token make a
        retried complete safe: the server absorbs an exact duplicate
        (``{"duplicate": true}``) rather than journaling it twice,
        and refuses a late complete under a superseded token with
        :class:`~repro.exceptions.StaleLeaseError`.
        """
        status, answer = self._request(
            "POST", "/v1/work/complete",
            {"fingerprint": fingerprint, "token": token,
             "verdict": dict(verdict), "meta": dict(meta or {})})
        return self._expect(status, answer)

    def work_fail(self, fingerprint: str, token: str,
                  error: str) -> Dict[str, Any]:
        """Record a failed attempt (backoff-retry or dead-letter)."""
        status, answer = self._request(
            "POST", "/v1/work/fail",
            {"fingerprint": fingerprint, "token": token,
             "error": str(error)})
        return self._expect(status, answer)

    # -- sweeps ------------------------------------------------------

    def submit_sweep(self, sweep: SweepSpec) -> Dict[str, Any]:
        """Submit a decomposed sweep (idempotent, like jobs)."""
        expected = sweep.fingerprint
        status, answer = self._request(
            "POST", "/v1/sweeps", sweep.to_json_dict())
        receipt = self._expect(status, answer)
        if receipt.get("sweep") != expected:
            raise ServiceError(
                f"server fingerprinted the sweep as "
                f"{str(receipt.get('sweep'))[:12]}…, client "
                f"computed {expected[:12]}…"
            )
        if receipt.get("deduplicated"):
            self.stats.deduplicated_submissions += \
                int(receipt["deduplicated"])
        return receipt

    def sweep_table(self, sweep_fingerprint: str
                    ) -> Dict[str, Any]:
        """The sweep's merged verdict table as journaled so far."""
        status, answer = self._request(
            "GET", f"/v1/sweeps/{sweep_fingerprint}")
        return self._expect(status, answer)

    def wait_sweep(self, sweep_fingerprint: str, *,
                   timeout: float = 300.0,
                   poll: float = 0.2) -> Dict[str, Any]:
        """Poll the merge until every cell is journaled terminal."""
        deadline = time.monotonic() + timeout
        while True:
            table = self.sweep_table(sweep_fingerprint)
            if table.get("complete"):
                return table
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"sweep {sweep_fingerprint[:12]}… incomplete "
                    f"after {timeout:g}s: {table.get('counts')}"
                )
            self.sleep(poll)

    # -- service-wide ------------------------------------------------

    def health(self) -> Dict[str, Any]:
        status, answer = self._request("GET", "/v1/health")
        return self._expect(status, answer)

    def service_stats(self) -> Dict[str, Any]:
        status, answer = self._request("GET", "/v1/stats")
        return self._expect(status, answer)


def wait_terminal(client: ServiceClient, fingerprints,
                  timeout: float = 300.0,
                  poll: float = 0.1) -> Dict[str, Dict[str, Any]]:
    """Wait for many jobs; returns fingerprint → result payload."""
    results = {}
    deadline = time.monotonic() + timeout
    for fingerprint in fingerprints:
        remaining = max(0.1, deadline - time.monotonic())
        results[fingerprint] = client.wait_result(
            fingerprint, timeout=remaining, poll=poll)
    return results


__all__ = [
    "ClientStats",
    "ServiceClient",
    "wait_terminal",
]
