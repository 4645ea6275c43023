"""The acceptance-criteria chaos soak.

A batch of 20+ mixed certification jobs runs under injected worker
kills, hangs, forced lease expiries, queue-journal truncation and
cache garbling.  Every job must reach a terminal state, every
completed verdict must be bit-identical to the same job run
undisturbed, and a repeated submission of a completed job must be
served from the ResultCache with zero simulator evaluations
(asserted via the EngineStats-derived ``meta.evaluations``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.service import (
    CertificationService,
    FaultPlan,
    JobSpec,
    SUCCEEDED,
    garble_cache_entry,
    truncate_queue_journal,
)

from tests.service.conftest import fast_config, needs_fork


def soak_specs() -> List[JobSpec]:
    """20 mixed jobs: fixed-budget MC, sequential SPRT, a stress
    sweep — all trivial-code so the soak stays in seconds."""
    specs: List[JobSpec] = []
    for seed in range(12):
        specs.append(JobSpec.create(
            "monte_carlo", code="trivial", gadget="n", p=0.02,
            trials=40 + 20 * (seed % 3), seed=100 + seed,
            chunk_size=20))
    for seed in range(6):
        specs.append(JobSpec.create(
            "sequential_monte_carlo", code="trivial", gadget="n",
            p=0.03, p0=0.01, p1=0.15, max_trials=160,
            batch_size=40, seed=200 + seed))
    specs.append(JobSpec.create(
        "stress_certify", code="trivial", p=0.01, trials=30,
        seed=300, gadgets=["n"], include_structural=False))
    specs.append(JobSpec.create(
        "monte_carlo", code="trivial", gadget="recovery", p=0.02,
        trials=40, seed=400, chunk_size=20))
    assert len(specs) >= 20
    return specs


def run_undisturbed(tmp_path) -> Dict[str, dict]:
    service = CertificationService(str(tmp_path / "reference"),
                                   config=fast_config())
    fps = [service.submit(spec) for spec in soak_specs()]
    service.worker("ref").run_until_drained(timeout=300.0)
    verdicts = {}
    for fp in fps:
        status = service.status(fp)
        assert status.state == SUCCEEDED
        verdicts[fp] = status.verdict
    return verdicts


@needs_fork
class TestChaosSoak:
    def test_soak(self, tmp_path):
        reference = run_undisturbed(tmp_path)
        specs = soak_specs()

        chaos = (
            FaultPlan()
            .add("job", "start", 0, "kill")            # instant kill
            .add("job", "batch:0", 3, "kill")          # mid-journal
            .add("job", "batch:1", 13, "kill")         # sequential
            .add("job", "batch:0", 5, "hang",
                 seconds=30.0)                         # past deadline
            .add("job", "batch:0", 7, "expire")        # live holder
            .add("job", "start", 15, "expire")
            .add("job", "start", 9, "fail")            # typed error
            .add("job", "start", 16, "fail")
        )
        service = CertificationService(
            str(tmp_path / "soak"),
            config=fast_config(workers=3, lease_ttl=0.5,
                               heartbeat_interval=0.1,
                               job_deadline=5.0,
                               max_attempts=4,
                               backoff_base=0.05),
            chaos=chaos)
        fps = [service.submit(spec) for spec in specs]
        assert len(set(fps)) == len(fps)

        outcome = service.run_until_drained(timeout=300.0)

        # every job terminal, every verdict bit-identical
        assert outcome["counts"] == {"succeeded": len(fps)}
        disturbed_attempts = 0
        for fp in fps:
            status = service.status(fp)
            assert status.state == SUCCEEDED, status.error
            assert status.verdict == reference[fp], \
                f"verdict diverged under chaos for {fp[:12]}"
            disturbed_attempts += status.attempt
        # the chaos actually bit: several jobs needed >1 attempt
        assert disturbed_attempts >= len(fps) + 4

        # driver-side damage: tear the journal tail and garble a
        # cached verdict, then resubmit everything
        truncate_queue_journal(service.queue)
        garble_cache_entry(service.cache, fps[1])
        for spec in specs:
            service.submit(spec)
        service.worker("after").run_until_drained(timeout=300.0)

        cache_hits = 0
        for fp in fps:
            status = service.status(fp)
            assert status.state == SUCCEEDED
            assert status.verdict == reference[fp]
            if status.meta.get("cache_hit"):
                # the acceptance assertion: cache-served completion
                # touched the simulator zero times
                assert status.meta["evaluations"] == 0
                cache_hits += 1
        # nearly everything resubmitted is answered by the cache;
        # the garbled entry was quarantined and recomputed
        assert cache_hits >= len(fps) - 2
        assert service.cache.quarantined()
        garbled = service.status(fps[1])
        assert garbled.verdict == reference[fps[1]]
        assert garbled.meta.get("cache_hit") is False
