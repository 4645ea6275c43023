"""Chaos certification: every injected infrastructure fault ends in
either the *correct* result or a typed ``RuntimeIntegrityError`` —
never a silently wrong number.

Each scenario runs the real engine on a real gadget with a
deterministic :class:`~repro.runtime.FaultPlan` and compares against a
chaos-free baseline computed with identical seeds.  Process-level
faults (SIGKILL, hang) exercise the supervisor; backend faults (OOM,
simulator error) end a serial run in a typed error and a pool run in
a supervised retry; invariant faults exercise the retry shield;
checkpoint corruption exercises the integrity checks on resume.
"""

import multiprocessing

import pytest

from repro.analysis import n_gadget_evaluator
from repro.analysis.engine import run_monte_carlo
from repro.exceptions import (
    CheckpointError,
    RuntimeIntegrityError,
    SimulationError,
)
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel
from repro.runtime import (
    CheckpointStore,
    Fault,
    FaultPlan,
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
                    backoff_base_seconds=0.01)
    defaults.update(overrides)
    return SupervisorConfig(**defaults)


def _mc(tiny, *, workers, runtime=None, invariant=None,
        checkpoint=None, trials=800, seed=7, chunk_size=8,
        batch_size=1):
    gadget, initial, evaluator = tiny
    noise = NoiseModel.uniform(0.25)
    return run_monte_carlo(gadget, initial, evaluator, noise,
                           trials=trials, seed=seed, workers=workers,
                           chunk_size=chunk_size, runtime=runtime,
                           invariant=invariant, checkpoint=checkpoint,
                           batch_size=batch_size)


class TestChaosPlan:
    def test_events_fire_once(self):
        plan = FaultPlan().add("job", "start", 0, "fail")
        assert plan.match("job", "start", 0, 1)
        assert plan.match("job", "start", 0, 1) == []

    def test_match_is_coordinate_exact(self):
        plan = FaultPlan().add("job", "batch:1", 2, "fail", attempt=3)
        assert plan.match("job", "batch:0", 2, 3) == []
        assert plan.match("job", "batch:1", 2, 2) == []
        assert plan.match("job", "batch:1", 1, 3) == []
        assert plan.match("job", "batch:1", 2, 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("job", "start", 0, "segfault")

    def test_unknown_layer_and_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault layer"):
            Fault("disk", "start", 0, "fail")
        with pytest.raises(ValueError, match="site"):
            Fault("net", "nosuchop", 0, "drop")
        with pytest.raises(ValueError, match="site"):
            Fault("job", "batch", 0, "fail")

    def test_process_kinds_never_target_the_parent(self):
        with pytest.raises(ValueError, match="pool worker"):
            Fault("engine", "parent", 0, "kill")

    def test_every_attempt_fault_fires_once_per_attempt(self):
        plan = FaultPlan().add("engine", "pool", 0, "oom",
                               attempt=None)
        for attempt in (1, 2, 3):
            assert plan.match("engine", "pool", 0, attempt)
            assert plan.match("engine", "pool", 0, attempt) == []
        assert plan.fired == 1

    def test_span_covers_count_indices_and_tallies_once(self):
        plan = FaultPlan().add("fleet", "w1", 2, "partition", count=2)
        hits = [bool(plan.match("fleet", "w1", index))
                for index in range(5)]
        assert hits == [False, False, True, True, False]
        assert plan.fired == len(plan.faults) == 1


@needs_fork
class TestProcessChaos:
    def test_killed_worker_recovers_correct_result(self, tiny):
        baseline = _mc(tiny, workers=2)
        runtime = RuntimePolicy(
            supervisor=_fast_supervision(),
            chaos=FaultPlan().add("engine", "pool", 0, "kill"),
        )
        survived = _mc(tiny, workers=2, runtime=runtime)
        assert survived == baseline
        stats = survived.engine_stats
        assert stats.hung_chunks >= 1
        assert stats.pool_restarts >= 1
        assert stats.retries == 1
        assert stats.quarantined_chunks == 0
        # Incidents must be visible in the human-readable report.
        assert any("resilience" in line
                   for line in stats.summary_lines())

    def test_hung_worker_recovers_correct_result(self, tiny):
        baseline = _mc(tiny, workers=2)
        runtime = RuntimePolicy(
            supervisor=_fast_supervision(chunk_deadline_seconds=1.0),
            chaos=FaultPlan().add("engine", "pool", 1, "hang",
                                  seconds=3600.0),
        )
        survived = _mc(tiny, workers=2, runtime=runtime)
        assert survived == baseline
        assert survived.engine_stats.hung_chunks >= 1
        assert survived.engine_stats.pool_restarts >= 1
        assert survived.engine_stats.retries == 1
        assert survived.engine_stats.quarantined_chunks == 0

    def test_unkillable_chunk_is_quarantined_to_correct_result(
            self, tiny):
        # The chunk dies on *every* pool attempt; only the in-parent
        # quarantine path (where process chaos cannot fire) can finish
        # it — and it must finish it correctly.
        baseline = _mc(tiny, workers=2)
        runtime = RuntimePolicy(
            supervisor=_fast_supervision(max_retries=1,
                                         chunk_deadline_seconds=1.0),
            chaos=FaultPlan().add("engine", "pool", 0, "kill",
                                  attempt=None),
        )
        survived = _mc(tiny, workers=2, runtime=runtime)
        assert survived == baseline
        assert survived.engine_stats.quarantined_chunks == 1
        assert survived.engine_stats.retries == 1

    def test_unrecoverable_chunk_is_typed_error_not_wrong_number(
            self, tiny):
        # OOM on every attempt: the pool retries fail, and the
        # in-parent quarantine re-evaluation is struck too.  The run
        # must die typed, not return garbage.
        runtime = RuntimePolicy(
            supervisor=_fast_supervision(max_retries=1),
            chaos=(FaultPlan()
                   .add("engine", "pool", 0, "oom", attempt=None)
                   .add("engine", "parent", 0, "oom", attempt=None)),
        )
        with pytest.raises(RuntimeIntegrityError,
                           match="no correct result"):
            _mc(tiny, workers=2, runtime=runtime)


_BACKEND_ERRORS = {"oom": MemoryError,
                   "simulation_error": SimulationError}


class TestBackendChaos:
    @needs_fork
    @pytest.mark.parametrize("kind", sorted(_BACKEND_ERRORS))
    def test_pool_retries_struck_chunk_to_correct_result(self, tiny,
                                                         kind):
        baseline = _mc(tiny, workers=2)
        runtime = RuntimePolicy(
            supervisor=_fast_supervision(),
            chaos=FaultPlan().add("engine", "pool", 0, kind),
        )
        survived = _mc(tiny, workers=2, runtime=runtime)
        assert survived == baseline
        stats = survived.engine_stats
        assert stats.retries == 1
        assert stats.worker_errors == 1
        assert stats.quarantined_chunks == 0

    @pytest.mark.parametrize("kind", sorted(_BACKEND_ERRORS))
    def test_serial_backend_fault_is_typed_error(self, tiny, kind):
        runtime = RuntimePolicy(
            chaos=FaultPlan().add("engine", "parent", 0, kind),
        )
        with pytest.raises(RuntimeIntegrityError,
                           match="sparse simulation") as caught:
            _mc(tiny, workers=1, runtime=runtime)
        assert isinstance(caught.value.__cause__, _BACKEND_ERRORS[kind])

    def test_transient_invariant_failure_is_retried(self, tiny):
        invariant = norm_invariant()
        baseline = _mc(tiny, workers=1, invariant=invariant)
        runtime = RuntimePolicy(
            chaos=FaultPlan().add("engine", "parent", 0,
                                  "verification_error"),
        )
        survived = _mc(tiny, workers=1, runtime=runtime,
                       invariant=invariant)
        assert survived == baseline
        assert survived.engine_stats.invariant_retries == 8

    @pytest.mark.parametrize("kind", ["oom", "simulation_error",
                                      "verification_error"])
    def test_batched_path_honours_backend_faults(self, tiny, kind):
        # The struck chunk's stack drops to the per-pattern path, so
        # batch_size=8 must fail or retry exactly as a serial run.
        invariant = norm_invariant()

        def struck(batch_size):
            runtime = RuntimePolicy(
                chaos=FaultPlan().add("engine", "parent", 0, kind))
            try:
                result = _mc(tiny, workers=1, runtime=runtime,
                             invariant=invariant,
                             batch_size=batch_size)
            except RuntimeIntegrityError as exc:
                return type(exc.__cause__), None
            return result, result.engine_stats.invariant_retries

        serial, batched = struck(1), struck(8)
        assert batched == serial
        if kind in _BACKEND_ERRORS:
            assert serial == (_BACKEND_ERRORS[kind], None)
        else:
            assert serial[1] == 8


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
            chaos=FaultPlan().add("engine", "pool", 0, "kill"),
        )
        survived = _mc(tiny, workers=2, runtime=runtime,
                       checkpoint=store)
        assert survived == baseline
        assert store.load_final()["complete"] is True
        # And the journal it left is genuinely resumable.
        resumed = _mc(tiny, workers=2, checkpoint=store)
        assert resumed == baseline
        assert resumed.engine_stats.evaluations == 0
