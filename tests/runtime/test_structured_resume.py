"""Checkpoint/resume + chaos certification with structured noise.

PR 3 certified the resilient runtime against the baseline iid models;
the structured family changes the sampling path (per-trial model
sampling, fingerprint-derived seed streams, a ``model`` key in the
run identity), so the same guarantees are re-certified here:

* a structured-model run killed mid-flight and resumed is
  bit-identical to an uninterrupted one;
* a FaultPlan-killed worker still converges to the chaos-free result;
* a journal written by one structured model refuses to resume a
  different one (the ``model`` fingerprint key);
* worker count never changes a structured-model result.
"""

import multiprocessing

import pytest

from repro.analysis import n_gadget_evaluator
from repro.analysis.engine import run_monte_carlo
from repro.exceptions import CheckpointError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import (
    BiasedPauliModel,
    CorrelatedBurstModel,
    CrosstalkModel,
    DriftingRateModel,
    RateSchedule,
)
from repro.runtime import (
    CheckpointStore,
    FaultPlan,
    RuntimePolicy,
    SupervisorConfig,
)

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


def _models():
    return [
        BiasedPauliModel(0.25, bias=(1.0, 1.0, 8.0)),
        CorrelatedBurstModel(0.15, weight=2, decay=0.5),
        DriftingRateModel(RateSchedule.linear(0.05, 0.4)),
        CrosstalkModel(0.2, p_spectator=0.1),
    ]


class _InterruptAfter:
    """Raise KeyboardInterrupt after N evaluate-phase chunks."""

    def __init__(self, chunks: int) -> None:
        self.chunks = chunks
        self.seen = 0

    def __call__(self, event) -> None:
        if event.phase != "evaluate":
            return
        self.seen += 1
        if self.seen >= self.chunks:
            raise KeyboardInterrupt


class TestStructuredDeterminism:
    @pytest.mark.parametrize("model", _models(),
                             ids=lambda m: type(m).__name__)
    def test_worker_count_invariant(self, tiny, model):
        gadget, initial, evaluator = tiny
        kwargs = dict(trials=400, seed=99, chunk_size=32)
        serial = run_monte_carlo(gadget, initial, evaluator, model,
                                 workers=1, **kwargs)
        parallel = run_monte_carlo(gadget, initial, evaluator, model,
                                   workers=3, **kwargs)
        assert parallel == serial

    def test_models_draw_distinct_streams(self, tiny):
        """Two different structured models at the same seed must not
        share a fault stream (their spawn keys differ)."""
        gadget, initial, evaluator = tiny
        kwargs = dict(trials=300, seed=5, workers=1)
        a = run_monte_carlo(gadget, initial, evaluator,
                            BiasedPauliModel(0.3, bias=(1, 1, 1)),
                            **kwargs)
        b = run_monte_carlo(gadget, initial, evaluator,
                            CrosstalkModel(0.3, p_spectator=0.0),
                            **kwargs)
        # Identical per-location statistics, different streams.
        assert a.fault_count_histogram != b.fault_count_histogram


class TestStructuredResume:
    def test_killed_structured_run_resumes_bit_identically(
            self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        # Depolarizing bursts give a rich enough pattern alphabet that
        # the evaluate phase spans several chunks to interrupt between.
        model = CorrelatedBurstModel(0.2, weight=3, decay=0.7,
                                     channel="depolarizing")
        kwargs = dict(trials=1500, seed=314, workers=1, chunk_size=16)
        baseline = run_monte_carlo(gadget, initial, evaluator, model,
                                   **kwargs)
        store = CheckpointStore(str(tmp_path / "burst"))
        with pytest.raises(KeyboardInterrupt):
            run_monte_carlo(gadget, initial, evaluator, model,
                            checkpoint=store,
                            progress=_InterruptAfter(2), **kwargs)
        journaled = len(store.load_verdicts())
        assert journaled > 0
        resumed = run_monte_carlo(gadget, initial, evaluator, model,
                                  checkpoint=store, **kwargs)
        assert resumed == baseline
        assert resumed.engine_stats.resumed_verdicts == journaled

    def test_journal_refuses_different_structured_model(self, tiny,
                                                        tmp_path):
        gadget, initial, evaluator = tiny
        kwargs = dict(trials=200, seed=8, workers=1)
        store = CheckpointStore(str(tmp_path / "modelswap"))
        run_monte_carlo(gadget, initial, evaluator,
                        BiasedPauliModel.phase_biased(0.2),
                        checkpoint=store, **kwargs)
        with pytest.raises(CheckpointError, match="different run"):
            run_monte_carlo(gadget, initial, evaluator,
                            BiasedPauliModel.bit_biased(0.2),
                            checkpoint=store, **kwargs)

    def test_journal_distinguishes_model_parameters(self, tiny,
                                                    tmp_path):
        gadget, initial, evaluator = tiny
        kwargs = dict(trials=200, seed=8, workers=1)
        store = CheckpointStore(str(tmp_path / "paramswap"))
        run_monte_carlo(gadget, initial, evaluator,
                        CorrelatedBurstModel(0.2, weight=2),
                        checkpoint=store, **kwargs)
        with pytest.raises(CheckpointError, match="different run"):
            run_monte_carlo(gadget, initial, evaluator,
                            CorrelatedBurstModel(0.2, weight=3),
                            checkpoint=store, **kwargs)


@needs_fork
class TestStructuredChaos:
    def test_killed_worker_recovers_structured_result(self, tiny):
        gadget, initial, evaluator = tiny
        model = DriftingRateModel(RateSchedule.sinusoidal(0.25, 0.15))
        kwargs = dict(trials=800, seed=7, chunk_size=8, workers=2)
        baseline = run_monte_carlo(gadget, initial, evaluator, model,
                                   **kwargs)
        runtime = RuntimePolicy(
            supervisor=SupervisorConfig(
                chunk_deadline_seconds=2.0, max_retries=2,
                backoff_base_seconds=0.01),
            chaos=FaultPlan().add("engine", "pool", 0, "kill"),
        )
        survived = run_monte_carlo(gadget, initial, evaluator, model,
                                   runtime=runtime, **kwargs)
        assert survived == baseline
        assert survived.engine_stats.retries >= 1

    def test_chaos_plus_checkpoint_stays_bit_identical(self, tiny,
                                                       tmp_path):
        gadget, initial, evaluator = tiny
        model = BiasedPauliModel(0.25, bias=(2.0, 1.0, 5.0))
        kwargs = dict(trials=800, seed=13, chunk_size=8, workers=2)
        baseline = run_monte_carlo(gadget, initial, evaluator, model,
                                   **kwargs)
        runtime = RuntimePolicy(
            supervisor=SupervisorConfig(
                chunk_deadline_seconds=2.0, max_retries=2,
                backoff_base_seconds=0.01),
            chaos=FaultPlan().add("engine", "pool", 1, "kill"),
        )
        store = CheckpointStore(str(tmp_path / "chaos-ckpt"))
        survived = run_monte_carlo(gadget, initial, evaluator, model,
                                   runtime=runtime, checkpoint=store,
                                   **kwargs)
        assert survived == baseline
        assert store.load_final()["complete"] is True
        # And the journal it left behind resumes cleanly.
        again = run_monte_carlo(gadget, initial, evaluator, model,
                                checkpoint=store, **kwargs)
        assert again == baseline
        assert again.engine_stats.evaluations == 0
