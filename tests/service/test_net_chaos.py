"""The network-chaos certification soak (acceptance criteria).

A decomposed 12-cell sweep is driven entirely over HTTP while the
network misbehaves on exact request coordinates — drops, duplicates,
delays, client disconnects, garbled responses — and one worker is
SIGKILLed mid-cell.  The drained merged table must be bit-identical
to an undisturbed in-process run of the same sweep; duplicated
submissions must never enqueue twice; and a full resubmission must be
served from the verdict cache at exactly 0 simulator evaluations.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.service import (
    CertificationServer,
    CertificationService,
    FaultPlan,
    SUCCEEDED,
    ServiceClient,
    SweepSpec,
    garble_cache_entry,
    run_sweep_inprocess,
    submit_sweep,
)

from tests.service.conftest import fast_config, needs_fork


def soak_sweep(seed: int = 13) -> SweepSpec:
    """2 gadgets x 6 noise rates = 12 Monte-Carlo cells."""
    return SweepSpec.create(
        "monte_carlo", code="trivial", gadgets=("n", "recovery"),
        p_grid=(0.005, 0.01, 0.02, 0.03, 0.05, 0.08), seed=seed,
        trials=30, chunk_size=10)


def _network_plan() -> FaultPlan:
    """Every fault kind, pinned to coordinates the soak will hit."""
    return (
        FaultPlan()
        # Individual cell submissions: ambiguous failures that force
        # blind resubmission.
        .add("net", "submit", 0, "drop")
        .add("net", "submit", 1, "garble")
        .add("net", "submit", 2, "duplicate")
        # The whole-sweep submission torn mid-response, then retried.
        .add("net", "sweep_submit", 0, "disconnect")
        # The merge-polling side: congestion and corruption.
        .add("net", "sweep_status", 0, "delay", seconds=0.1)
        .add("net", "sweep_status", 1, "garble")
        .add("net", "sweep_status", 2, "disconnect")
        .add("net", "stats", 0, "drop")
    )


@needs_fork
class TestNetworkChaosSoak:
    def test_soak_matches_undisturbed_reference(self, tmp_path):
        sweep = soak_sweep()
        reference = run_sweep_inprocess(sweep, str(tmp_path / "ref"))
        assert reference["counts"] == {SUCCEEDED: 12}

        # One worker kill: SIGKILL mid-claim on the third submitted
        # cell's first attempt.  The lease must expire, the job be
        # reaped and the re-claim resume bit-identically.
        chaos = _network_plan().add("job", "start", 2, "kill")
        config = fast_config(workers=2, lease_ttl=0.5,
                             max_attempts=3, job_deadline=60.0)
        service = CertificationService(str(tmp_path / "svc"),
                                       config=config, chaos=chaos)
        with CertificationServer(service) as server:
            client = ServiceClient(*server.address, timeout=2.0,
                                   max_attempts=6,
                                   backoff_base=0.02)
            cells = sweep.cells()
            # Submit three cells individually through submit-op chaos
            # (drop / garble / duplicate)...
            for cell in cells[:3]:
                receipt = client.submit(cell.spec)
                assert receipt["fingerprint"] == cell.fingerprint
            # ...then the whole sweep; its first response is torn
            # mid-flight, the blind retry dedups every live cell.
            receipt = client.submit_sweep(sweep)
            assert receipt["sweep"] == sweep.fingerprint
            assert receipt["deduplicated"] == 12
            assert receipt["submitted"] == 0

            # Drain with the forked, supervised pool while the client
            # polls the journaled merge through sweep_status chaos.
            drainer = threading.Thread(
                target=service.run_until_drained,
                kwargs={"timeout": 120.0}, daemon=True)
            drainer.start()
            table = client.wait_sweep(sweep.fingerprint,
                                      timeout=120.0)
            drainer.join(timeout=120.0)
            assert not drainer.is_alive()

            # The headline assertion: bit-identical to the
            # undisturbed in-process reference.
            assert table["complete"] is True
            assert table["partial"] is False
            assert table["cells"] == reference["cells"]
            assert table["counts"] == reference["counts"]

            # Exactly-once submission under duplication: 12 jobs, 12
            # submit events, 12 completions — the duplicated and
            # retried submissions never enqueued a second job.
            assert len(service.queue.jobs()) == 12
            events = service.queue.event_counts()
            assert events["submit"] == 12
            assert events["complete"] == 12
            # The killed worker's lease expired and was reaped; the
            # cell took a second attempt.
            assert events["expire"] >= 1
            assert events["claim"] >= 13

            # Every injected network fault actually fired (the stats
            # request below consumes the drop("stats", 0) event).
            with pytest.raises(Exception):
                ServiceClient(*server.address, timeout=0.5,
                              max_attempts=1).service_stats()
            # (the job kill fired in a forked pool child, which
            # tallies in its own copy of the plan)
            assert chaos.fired == sum(fault.layer == "net"
                                      for fault in chaos.faults)
            assert client.stats.retries >= 2
            assert client.stats.garbled_responses >= 1
            assert client.stats.network_faults >= 1
            assert client.stats.deduplicated_submissions >= 1

            # Full resubmission: every cell is answered from the
            # verdict cache at exactly 0 simulator evaluations.
            resubmit = submit_sweep(service, sweep)
            assert resubmit["submitted"] == 12  # fresh rounds
            service_stats = service.stats()
            assert service_stats.cache_entries == 12
            drain2 = service.run_until_drained(timeout=120.0)
            assert drain2["counts"][SUCCEEDED] == 12
            for cell in cells:
                status = service.status(cell.fingerprint)
                assert status.meta["cache_hit"] is True
                assert status.meta["evaluations"] == 0
            table2 = client.wait_sweep(sweep.fingerprint,
                                       timeout=30.0)
            assert table2["cells"] == reference["cells"]


class TestEvictionUnderLoad:
    """The eviction leg of the acceptance criteria: a bounded cache
    evicts under a 12-cell campaign yet never serves a stale or
    corrupt verdict — evicted cells recompute bit-identically."""

    def test_bounded_cache_never_serves_stale_or_corrupt(
            self, tmp_path):
        sweep = soak_sweep(seed=29)
        reference = run_sweep_inprocess(sweep, str(tmp_path / "ref"))
        service = CertificationService(
            str(tmp_path / "svc"),
            config=fast_config(cache_max_entries=5))
        submit_sweep(service, sweep)
        service.worker("w1").run_until_drained()
        # 12 puts against a 5-entry bound: evictions journaled.
        stats = service.stats()
        assert stats.cache_entries == 5
        assert stats.cache_evictions["lru"] == 7
        # Corrupt one surviving entry on top of the eviction churn,
        # pinned most-recently-used so the LRU churn cannot delete it
        # before a reader meets the corruption.
        survivor_fp, survivor_path = service.cache.entries()[0]
        garble_cache_entry(service.cache, survivor_fp)
        pin = time.time() + 1e6
        os.utime(survivor_path, (pin, pin))

        # Resubmit the whole sweep: every cell — cached, evicted or
        # garbled — must land bit-identical to the reference.  (The
        # sequential re-drain churns the LRU, so evicted/garbled
        # cells re-derive; what matters is that no read ever returned
        # a stale or corrupt verdict.)
        submit_sweep(service, sweep)
        service.worker("w2").run_until_drained()
        for cell in sweep.cells():
            status = service.status(cell.fingerprint)
            assert status.state == SUCCEEDED
            assert status.verdict \
                == reference["cells"][cell.key]["verdict"]
            if status.meta["cache_hit"]:
                # A hit is only ever the fresh, digest-checked entry.
                assert status.meta["evaluations"] == 0
        # The garbled survivor was quarantined (post-mortem bytes
        # kept), re-derived, and its row above matched the reference
        # — corrupt data was detected, never believed.
        assert len(service.cache.quarantined()) == 1
        corrupt_status = service.status(survivor_fp)
        assert corrupt_status.meta["cache_hit"] is False
        # Eviction churn continued through the second drain, all of
        # it journaled with reasons.
        assert service.cache.eviction_counts()["lru"] >= 7
        assert len(service.cache.entries()) == 5
