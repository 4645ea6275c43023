"""Crash-safe certification job service.

The paper certifies that fault-tolerant gadgets survive faults; this
package holds the certification *infrastructure* to the same
standard.  It promotes the runtime's crash-safe pieces —
:class:`~repro.runtime.CheckpointStore` journals, supervised
execution, deterministic chaos — into a durable job system:

* :class:`~repro.service.jobs.JobSpec` — content-addressed
  certification requests (SHA-256 fingerprint of the canonical spec);
* :class:`~repro.service.queue.JobQueue` — append-only event journal,
  token + TTL leases, exponential backoff with deterministic jitter,
  dead-letter quarantine, client cancellation;
* :class:`~repro.service.worker.Worker` — the one lease loop: claim
  → cache check → seeded run with per-job checkpoints → streamed
  progress → token-checked completion, in-process or over HTTP;
* :class:`~repro.service.pool.CertificationService` — the facade,
  draining in-process or in forked slots of the one process
  supervisor (:class:`~repro.runtime.supervisor.Slots`), with
  :class:`~repro.service.pool.ServiceStats` observability;
* :class:`~repro.service.cache.ResultCache` — fingerprint → verdict
  with integrity digests; corrupt entries quarantined and recomputed;
  LRU/TTL eviction journaled, never serving stale or corrupt entries;
* :class:`~repro.service.net.CertificationServer` /
  :class:`~repro.service.client.ServiceClient` — the networked
  front-end: stdlib HTTP/asyncio submission API with idempotent
  content-addressed submission, digest-enveloped responses,
  long-poll cursor-resumable ``watch``, and a client whose
  timeout/backoff/reconnect/resubmit machinery makes delivery
  exactly-once over an unreliable network;
* :class:`~repro.service.remote.RemoteWorker` /
  :class:`~repro.service.auth.WorkerAuth` — the worker fleet over
  HTTP: HMAC shared-secret authenticated ``/v1/work/*`` endpoints,
  lease tokens on every mutation, idempotent retried completes;
* :mod:`~repro.service.sweep` — one whole-grid claim decomposed into
  per-cell queue jobs with a crash-safe, journaled merge step;
* :class:`~repro.runtime.chaos.FaultPlan` (re-exported) — the one
  fault plan: the worker acts on its ``job`` faults (kills, hangs,
  lease expiries, failures) and the server on its ``net`` and
  ``fleet`` faults (drop/delay/duplicate/disconnect/garble,
  partitions, late heartbeats), each at an exact coordinate.

The contract throughout is the runtime's: a correct verdict —
bit-identical whether or not the run was disturbed — or a typed
error, never a silently wrong number.
"""

from repro.runtime.chaos import Fault, FaultPlan
from repro.service.auth import WorkerAuth, sign_request, \
    verify_request
from repro.service.cache import ResultCache, garble_cache_entry, \
    verdict_digest
from repro.service.client import ClientStats, ServiceClient, \
    wait_terminal
from repro.service.remote import HttpTransport, RemoteWorker, \
    remote_worker_main
from repro.service.jobs import CANCELLED, DEAD, FAILED, JOB_KINDS, \
    JobSpec, JobStatus, PENDING, RUNNING, SUCCEEDED, TERMINAL_STATES
from repro.service.net import CertificationServer
from repro.service.pool import CertificationService, ServiceConfig, \
    ServiceStats
from repro.service.queue import JobQueue, Lease, backoff_delay, \
    truncate_queue_journal
from repro.service.sweep import SWEEP_CELL_KINDS, SweepCell, \
    SweepSpec, load_sweep, merge_sweep, run_sweep_inprocess, \
    submit_sweep
from repro.service.worker import LeaseTransport, QueueTransport, \
    Worker

__all__ = [
    "CANCELLED",
    "CertificationServer",
    "CertificationService",
    "ClientStats",
    "DEAD",
    "FAILED",
    "Fault",
    "FaultPlan",
    "HttpTransport",
    "JOB_KINDS",
    "JobQueue",
    "JobSpec",
    "JobStatus",
    "Lease",
    "LeaseTransport",
    "PENDING",
    "QueueTransport",
    "RUNNING",
    "RemoteWorker",
    "ResultCache",
    "SUCCEEDED",
    "SWEEP_CELL_KINDS",
    "ServiceClient",
    "ServiceConfig",
    "ServiceStats",
    "SweepCell",
    "SweepSpec",
    "TERMINAL_STATES",
    "Worker",
    "WorkerAuth",
    "backoff_delay",
    "garble_cache_entry",
    "load_sweep",
    "merge_sweep",
    "remote_worker_main",
    "run_sweep_inprocess",
    "sign_request",
    "submit_sweep",
    "truncate_queue_journal",
    "verdict_digest",
    "verify_request",
    "wait_terminal",
]
