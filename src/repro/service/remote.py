"""The remote certification worker: the fleet's over-the-wire half.

:class:`RemoteWorker` is the :class:`~repro.service.worker.Worker`
lease loop over :class:`HttpTransport`: each step is one HMAC-signed
``/v1/work/*`` request to a :class:`~repro.service.net.
CertificationServer`, which reaps expired leases on every claim and
answers a cache hit with ``cached_verdict``.  A 409 — lease re-issued,
or the job past its hard deadline — re-raises as
:class:`~repro.exceptions.StaleLeaseError`, exactly as in-process.
:class:`~repro.service.client.ServiceClient` retries every network
fault; the lease token plus the content-addressed verdict make a
blindly retried ``complete`` safe.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Dict, Iterator, Optional

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.policy import RuntimePolicy
from repro.service.auth import WorkerAuth
from repro.service.client import ServiceClient
from repro.service.queue import Lease
from repro.service.worker import Worker


class HttpTransport:
    """The :class:`~repro.service.worker.LeaseTransport` over HTTP.

    Each call is one ``ServiceClient.work_*`` request; ``drained``
    answers from the last claim, so draining costs no extra request.
    """

    def __init__(self, client: ServiceClient, scratch: str) -> None:
        self.client = client
        self.scratch = os.fspath(scratch)
        self._drained = False

    def claim(self, worker: str) -> Optional[Lease]:
        answer = self.client.work_claim()
        self._drained = bool(answer.get("drained"))
        lease = answer.get("lease")
        return None if lease is None else Lease.from_json_dict(lease)

    def drained(self) -> bool:
        return self._drained

    def reap(self) -> None:
        """Nothing to do: the server reaps on every claim."""

    def heartbeat(self, fingerprint: str, token: str) -> float:
        return self.client.work_heartbeat(fingerprint, token)

    def progress(self, fingerprint: str, token: str,
                 event: Dict[str, Any]) -> None:
        self.client.work_progress(fingerprint, token, event)

    def complete(self, fingerprint: str, token: str,
                 verdict: Dict[str, Any],
                 meta: Dict[str, Any]) -> bool:
        receipt = self.client.work_complete(fingerprint, token,
                                            verdict, meta=meta)
        return not receipt.get("duplicate")

    def fail(self, fingerprint: str, token: str, error: str) -> None:
        self.client.work_fail(fingerprint, token, error)

    @contextlib.contextmanager
    def engine_store(self, fingerprint: str
                     ) -> Iterator[CheckpointStore]:
        """A local scratch store: a re-claim on this host resumes from
        it; one elsewhere restarts, to the same verdict."""
        yield CheckpointStore(
            os.path.join(self.scratch, fingerprint, "engine"))


class RemoteWorker(Worker):
    """A :class:`Worker` over HTTP; one instance per remote host."""

    def __init__(self, host: str, port: int, *, secret: str,
                 scratch: str, name: str = "remote",
                 heartbeat_interval: Optional[float] = None,
                 runtime: Optional[RuntimePolicy] = None,
                 **client_kwargs: Any) -> None:
        self.client = ServiceClient(
            host, port, auth=WorkerAuth(secret=secret, worker=name),
            **client_kwargs)
        super().__init__(HttpTransport(self.client, scratch),
                         name=name,
                         heartbeat_interval=heartbeat_interval,
                         runtime=runtime)

    # Bound in this class body so that code patching
    # ``vars(RemoteWorker)["run_once"]`` (the benchmark's span tracer)
    # times remote turns apart from in-process ones.
    run_once = Worker.run_once


def remote_worker_main(host: str, port: int, secret: str,
                       name: str, scratch: str,
                       poll: float = 0.05,
                       timeout: float = 300.0,
                       **worker_kwargs: Any) -> int:
    """Process entry point: drain the queue from a separate process.

    Importable (not a closure) so it works as a ``multiprocessing``
    target under any start method — the soak harness SIGKILLs these
    processes mid-lease to certify crash recovery over the wire.
    """
    worker = RemoteWorker(host, port, secret=secret, name=name,
                          scratch=scratch, **worker_kwargs)
    return worker.run_until_drained(poll=poll, timeout=timeout)


__all__ = [
    "HttpTransport",
    "RemoteWorker",
    "remote_worker_main",
]
