"""Concurrent runtime access: rival claimers, lease races, cache
read-vs-write.  These are the satellite-task scenarios: two processes
claiming from one queue, lease expiry racing a slow-but-alive worker
(must not double-execute), and a cache read racing a cache write.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from typing import Optional

import pytest

from repro.service import (
    CertificationService,
    JobQueue,
    ResultCache,
    SUCCEEDED,
)

from tests.service.conftest import fast_config, mc_spec, needs_fork


def _claim_worker(root: str, out_dir: str, index: int,
                  queue: Optional[JobQueue] = None) -> None:
    if queue is None:
        queue = JobQueue(root, lease_ttl=30.0)
    claimed = []
    while True:
        lease = queue.claim(f"claimer-{index}")
        if lease is None:
            break
        claimed.append(lease.fingerprint)
    with open(os.path.join(out_dir, f"claims-{index}.json"),
              "w") as handle:
        json.dump(claimed, handle)


@needs_fork
class TestRivalClaimers:
    @pytest.mark.parametrize("inherit", [False, True],
                             ids=["fresh", "inherited-fold"])
    def test_two_processes_never_claim_the_same_job(self, tmp_path,
                                                    inherit):
        """N processes drain the claimable set; every job must be
        claimed exactly once across all of them — also when each
        forked child works through the parent's already-folded
        queue."""
        root = str(tmp_path / "q")
        out_dir = str(tmp_path / "out")
        os.makedirs(out_dir)
        queue = JobQueue(root, lease_ttl=30.0)
        fingerprints = [queue.submit(mc_spec(seed=s))
                        for s in range(8)]
        assert len(queue.jobs()) == 8
        context = multiprocessing.get_context("fork")
        children = [
            context.Process(target=_claim_worker,
                            args=(root, out_dir, index,
                                  queue if inherit else None))
            for index in range(4)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=30.0)
            assert child.exitcode == 0
        all_claims = []
        for index in range(4):
            with open(os.path.join(out_dir,
                                   f"claims-{index}.json")) as fh:
                all_claims.extend(json.load(fh))
        assert sorted(all_claims) == sorted(fingerprints)
        assert len(set(all_claims)) == len(all_claims)
        assert queue.jobs() == JobQueue(root).jobs()


class TestLeaseExpiryRace:
    def test_slow_but_alive_worker_does_not_double_complete(
            self, tmp_path):
        """Worker A stalls mid-job; its lease is expired away and B
        completes the job.  A's late completion must be refused: the
        journal ends with exactly one ``complete`` event and B's
        verdict stands."""
        service = CertificationService(
            str(tmp_path / "svc"),
            config=fast_config(lease_ttl=0.3,
                               heartbeat_interval=0.05))
        fp = service.submit(mc_spec())
        queue = service.queue

        release_a = threading.Event()
        a_outcome: dict = {}

        def slow_holder() -> None:
            lease = queue.claim("slow-a")
            a_outcome["claimed"] = lease is not None
            release_a.wait(10.0)
            # A is alive and believes it owns the job; its write
            # must be refused, not double-recorded.
            try:
                queue.complete(lease.fingerprint, lease.token,
                               {"v": "from-a"})
                a_outcome["completed"] = True
            except Exception as exc:  # noqa: BLE001
                a_outcome["error"] = type(exc).__name__

        thread = threading.Thread(target=slow_holder, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while "claimed" not in a_outcome:
            assert time.monotonic() < deadline
            time.sleep(0.01)

        # A stops heartbeating (it never started); let the TTL lapse
        time.sleep(0.4)
        assert queue.reap_expired() == [fp]
        worker_b = service.worker("fast-b")
        assert worker_b.run_once() == fp
        assert service.status(fp).state == SUCCEEDED

        release_a.set()
        thread.join(timeout=10.0)
        assert a_outcome.get("error") == "StaleLeaseError"
        assert not a_outcome.get("completed")

        events = queue.journal.load_records("events")
        completes = [e for e in events if e["event"] == "complete"]
        assert len(completes) == 1
        assert service.status(fp).verdict["kind"] == "monte_carlo"

    def test_forced_expiry_rejects_in_flight_holder(self, tmp_path):
        """The chaos 'expire lease under a live worker' scenario,
        driven through the public API."""
        service = CertificationService(str(tmp_path / "svc"),
                                       config=fast_config())
        fp = service.submit(mc_spec())
        queue = service.queue
        lease_a = queue.claim("a")
        queue.expire_lease(fp)
        lease_b = queue.claim("b")
        assert lease_b is not None and lease_b.attempt == 2
        queue.complete(fp, lease_b.token, {"v": "b"})
        import repro.exceptions as exc
        with pytest.raises(exc.StaleLeaseError):
            queue.complete(fp, lease_a.token, {"v": "a"})
        assert service.status(fp).verdict == {"v": "b"}


@needs_fork
class TestCacheReadWriteRace:
    def test_reader_never_sees_partial_entry(self, tmp_path):
        """A child rewrites the same cache entry in a tight loop
        while the parent reads it: every read must be a miss or the
        complete verdict, and no read may quarantine a healthy
        entry (atomic replace guarantees no torn state)."""
        directory = str(tmp_path / "cache")
        fp = mc_spec().fingerprint
        verdict = {"kind": "monte_carlo", "trials": 100,
                   "failures": 3, "blob": "x" * 4096}

        def writer() -> None:
            cache = ResultCache(directory)
            for _ in range(300):
                cache.put(fp, verdict)

        context = multiprocessing.get_context("fork")
        child = context.Process(target=writer)
        child.start()
        cache = ResultCache(directory)
        reads = 0
        while child.is_alive():
            got = cache.get(fp)
            assert got is None or got == verdict
            reads += 1
        child.join(timeout=30.0)
        assert child.exitcode == 0
        assert reads > 0
        assert cache.get(fp) == verdict
        assert cache.quarantined() == []
