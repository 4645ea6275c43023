"""Chaos certification: every injected infrastructure fault ends in
either the *correct* result or a typed ``RuntimeIntegrityError`` —
never a silently wrong number.

Each scenario runs the real engine on a real gadget with a
deterministic :class:`~repro.runtime.ChaosPlan` and compares against a
chaos-free baseline computed with identical seeds.  Process-level
faults (SIGKILL, hang) exercise the supervisor; backend faults (OOM,
simulator error) exercise the degradation ladder; invariant faults
exercise the retry shield; checkpoint corruption exercises the
integrity checks on resume.
"""

import multiprocessing

import pytest

from repro.analysis import n_gadget_evaluator
from repro.analysis.engine import run_monte_carlo
from repro.exceptions import CheckpointError, RuntimeIntegrityError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel
from repro.runtime import (
    ChaosPlan,
    CheckpointStore,
    FallbackPolicy,
    RuntimePolicy,
    SupervisorConfig,
    poison_checkpoint_verdict,
    truncate_checkpoint_record,
)
from repro.verify import norm_invariant

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

needs_fork = pytest.mark.skipif(not _HAS_FORK,
                                reason="fork start method unavailable")


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


def _fast_supervision(**overrides):
    defaults = dict(chunk_deadline_seconds=2.0, max_retries=2,
                    backoff_base_seconds=0.01, backoff_factor=2.0,
                    backoff_jitter=0.25, poll_interval_seconds=0.02)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _mc(tiny, *, workers, runtime=None, invariant=None,
        checkpoint=None, trials=800, seed=7, chunk_size=8):
    gadget, initial, evaluator = tiny
    noise = NoiseModel.uniform(0.25)
    return run_monte_carlo(gadget, initial, evaluator, noise,
                           trials=trials, seed=seed, workers=workers,
                           chunk_size=chunk_size, runtime=runtime,
                           invariant=invariant, checkpoint=checkpoint)


@needs_fork
class TestProcessChaos:
    def test_killed_worker_recovers_correct_result(self, tiny):
        baseline = _mc(tiny, workers=2)
        runtime = RuntimePolicy(
            supervisor=_fast_supervision(),
            chaos=ChaosPlan.single("kill", chunk_index=0),
        )
        survived = _mc(tiny, workers=2, runtime=runtime)
        assert survived == baseline
        stats = survived.engine_stats
        assert stats.hung_chunks >= 1
        assert stats.pool_restarts >= 1
        assert stats.retries >= 1
        # Incidents must be visible in the human-readable report.
        assert any("resilience" in line
                   for line in stats.summary_lines())

    def test_hung_worker_recovers_correct_result(self, tiny):
        baseline = _mc(tiny, workers=2)
        runtime = RuntimePolicy(
            supervisor=_fast_supervision(chunk_deadline_seconds=1.0),
            chaos=ChaosPlan.single("hang", chunk_index=1),
        )
        survived = _mc(tiny, workers=2, runtime=runtime)
        assert survived == baseline
        assert survived.engine_stats.hung_chunks >= 1
        assert survived.engine_stats.pool_restarts >= 1

    def test_unkillable_chunk_is_quarantined_to_correct_result(
            self, tiny):
        # The chunk dies on *every* pool attempt; only the in-parent
        # quarantine path (where process chaos cannot fire) can finish
        # it — and it must finish it correctly.
        baseline = _mc(tiny, workers=2)
        runtime = RuntimePolicy(
            supervisor=_fast_supervision(max_retries=1,
                                         chunk_deadline_seconds=1.0),
            chaos=ChaosPlan.single("kill", chunk_index=0,
                                   attempts=None),
        )
        survived = _mc(tiny, workers=2, runtime=runtime)
        assert survived == baseline
        assert survived.engine_stats.quarantined_chunks >= 1

    def test_unrecoverable_chunk_is_typed_error_not_wrong_number(
            self, tiny):
        # OOM on every attempt, no fallback ladder: the pool retries
        # fail, and the quarantine re-evaluation (in_parent=True) is
        # struck too.  The run must die typed, not return garbage.
        runtime = RuntimePolicy(
            supervisor=_fast_supervision(max_retries=1),
            fallback=None,
            chaos=ChaosPlan.single("oom", chunk_index=0,
                                   attempts=None, in_parent=True),
        )
        with pytest.raises(RuntimeIntegrityError,
                           match="no correct result"):
            _mc(tiny, workers=2, runtime=runtime)


class TestBackendChaos:
    def test_oom_degrades_to_statevector(self, tiny):
        baseline = _mc(tiny, workers=1)
        runtime = RuntimePolicy(
            chaos=ChaosPlan.single("oom", chunk_index=0,
                                   in_parent=True),
        )
        survived = _mc(tiny, workers=1, runtime=runtime)
        assert survived == baseline
        stats = survived.engine_stats
        assert stats.degraded_evaluations.get("statevector", 0) >= 1
        assert stats.degraded_total >= 1

    def test_simulation_error_degrades_identically(self, tiny):
        baseline = _mc(tiny, workers=1)
        runtime = RuntimePolicy(
            chaos=ChaosPlan.single("simulation_error", chunk_index=0,
                                   in_parent=True),
        )
        survived = _mc(tiny, workers=1, runtime=runtime)
        assert survived == baseline
        assert survived.engine_stats.degraded_evaluations.get(
            "statevector", 0) >= 1

    def test_oom_degrades_to_density_matrix(self, tiny):
        # Skip the statevector rung entirely: the density-matrix
        # backend must still reproduce the exact verdicts.
        baseline = _mc(tiny, workers=1)
        runtime = RuntimePolicy(
            fallback=FallbackPolicy(ladder=("sparse",
                                            "density_matrix")),
            chaos=ChaosPlan.single("oom", chunk_index=0,
                                   in_parent=True),
        )
        survived = _mc(tiny, workers=1, runtime=runtime)
        assert survived == baseline
        assert survived.engine_stats.degraded_evaluations.get(
            "density_matrix", 0) >= 1

    def test_exhausted_ladder_is_typed_error(self, tiny):
        runtime = RuntimePolicy(
            fallback=FallbackPolicy(ladder=("sparse",)),
            chaos=ChaosPlan.single("oom", chunk_index=0,
                                   attempts=None, in_parent=True),
        )
        with pytest.raises(RuntimeIntegrityError,
                           match="every backend"):
            _mc(tiny, workers=1, runtime=runtime)

    def test_transient_invariant_failure_is_retried(self, tiny):
        invariant = norm_invariant()
        baseline = _mc(tiny, workers=1, invariant=invariant)
        runtime = RuntimePolicy(
            chaos=ChaosPlan.single("verification_error",
                                   chunk_index=0, in_parent=True),
        )
        survived = _mc(tiny, workers=1, runtime=runtime,
                       invariant=invariant)
        assert survived == baseline
        assert survived.engine_stats.invariant_retries >= 1


class TestCheckpointChaos:
    def test_truncated_checkpoint_is_refused_on_resume(self, tiny,
                                                       tmp_path):
        store = CheckpointStore(str(tmp_path / "truncated"))
        _mc(tiny, workers=1, checkpoint=store)
        truncate_checkpoint_record(store)
        with pytest.raises(CheckpointError):
            _mc(tiny, workers=1, checkpoint=store)

    def test_poisoned_verdict_is_refused_on_resume(self, tiny,
                                                   tmp_path):
        # The poisoned journal still parses; only the integrity
        # checksum stands between resume and a silently wrong count.
        store = CheckpointStore(str(tmp_path / "poisoned"))
        _mc(tiny, workers=1, checkpoint=store)
        poison_checkpoint_verdict(store)
        with pytest.raises(CheckpointError, match="integrity"):
            _mc(tiny, workers=1, checkpoint=store)

    @needs_fork
    def test_chaos_during_checkpointed_run_still_completes(
            self, tiny, tmp_path):
        # Kill a worker mid-campaign *while* journaling: supervision
        # recovers in-flight, the journal stays consistent, and the
        # final result matches the chaos-free baseline.
        baseline = _mc(tiny, workers=2)
        store = CheckpointStore(str(tmp_path / "combined"))
        runtime = RuntimePolicy(
            supervisor=_fast_supervision(),
            chaos=ChaosPlan.single("kill", chunk_index=0),
        )
        survived = _mc(tiny, workers=2, runtime=runtime,
                       checkpoint=store)
        assert survived == baseline
        assert store.load_final()["complete"] is True
        # And the journal it left is genuinely resumable.
        resumed = _mc(tiny, workers=2, checkpoint=store)
        assert resumed == baseline
        assert resumed.engine_stats.evaluations == 0
