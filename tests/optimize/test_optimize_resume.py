"""Resume safety for optimized runs.

Two claims.  First, the PR-3 contract extends to optimized workloads:
an optimized Monte-Carlo run killed mid-flight and resumed is
bit-identical to an uninterrupted optimized run.  Second, the
fingerprint marker does its job: an unoptimized journal refuses to
resume with ``optimize=`` on, and vice versa — a silent mix of
location sets would corrupt the statistics without any error, which
is exactly what the fingerprint exists to prevent.
"""

from __future__ import annotations

import pytest

from repro.analysis import n_gadget_evaluator
from repro.analysis.engine import (
    run_exhaustive,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.exceptions import AnalysisError, CheckpointError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel
from repro.optimize import MARKER, pipeline
from repro.runtime import CheckpointStore


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


class _InterruptAfter:
    """KeyboardInterrupt after N evaluate-phase chunks (the PR-3
    deterministic stand-in for a Ctrl-C between chunks)."""

    def __init__(self, chunks: int) -> None:
        self.chunks = chunks
        self.seen = 0

    def __call__(self, event) -> None:
        if event.phase != "evaluate":
            return
        self.seen += 1
        if self.seen >= self.chunks:
            raise KeyboardInterrupt


class TestOptimizedKillAndResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_optimized_run_resumes_bit_identically(
            self, tiny, tmp_path, workers):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        kwargs = dict(trials=2000, seed=2026, workers=workers,
                      chunk_size=16, optimize=True)
        baseline = run_monte_carlo(gadget, initial, evaluator, noise,
                                   **kwargs)
        store = CheckpointStore(str(tmp_path / f"opt-w{workers}"))
        with pytest.raises(KeyboardInterrupt):
            run_monte_carlo(gadget, initial, evaluator, noise,
                            checkpoint=store,
                            progress=_InterruptAfter(2), **kwargs)
        journaled = len(store.load_verdicts())
        assert journaled > 0
        assert store.load_state("cursor")["interrupted"] is True
        assert store.load_final() is None
        resumed = run_monte_carlo(gadget, initial, evaluator, noise,
                                  checkpoint=store, **kwargs)
        assert resumed == baseline
        assert resumed.engine_stats.resumed_verdicts == journaled
        assert store.load_final()["complete"] is True

    def test_optimized_equals_pre_optimized_gadget_run(self, trivial):
        """optimize=True inside the engine is the same computation as
        passing an already-optimized gadget with optimize off."""
        gadget = build_n_gadget(trivial)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(trivial, 0)})
        evaluator = n_gadget_evaluator(gadget, trivial, 0)
        noise = NoiseModel.uniform(0.25)
        kwargs = dict(trials=800, seed=5, workers=1)
        inline = run_monte_carlo(gadget, initial, evaluator, noise,
                                 optimize=True, **kwargs)
        pre = build_n_gadget(trivial, optimize=True)
        upfront = run_monte_carlo(pre, initial, evaluator, noise,
                                  **kwargs)
        assert inline == upfront


class TestCrossOptimizerResumeRefusal:
    def test_unoptimized_journal_refuses_optimize_on(self, tiny,
                                                     tmp_path):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        kwargs = dict(trials=300, seed=9, workers=1)
        store = CheckpointStore(str(tmp_path / "plain"))
        run_monte_carlo(gadget, initial, evaluator, noise,
                        checkpoint=store, **kwargs)
        with pytest.raises(CheckpointError, match="different run"):
            run_monte_carlo(gadget, initial, evaluator, noise,
                            checkpoint=store, optimize=True, **kwargs)

    def test_optimized_journal_refuses_optimize_off(self, tiny,
                                                    tmp_path):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        kwargs = dict(trials=300, seed=9, workers=1)
        store = CheckpointStore(str(tmp_path / "opt"))
        run_monte_carlo(gadget, initial, evaluator, noise,
                        checkpoint=store, optimize=True, **kwargs)
        with pytest.raises(CheckpointError, match="different run"):
            run_monte_carlo(gadget, initial, evaluator, noise,
                            checkpoint=store, **kwargs)

    def test_pairs_journal_refuses_cross_optimizer_resume(
            self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        kwargs = dict(samples=200, seed=4, workers=1)
        store = CheckpointStore(str(tmp_path / "pairs"))
        run_malignant_pairs(gadget, initial, evaluator,
                            checkpoint=store, optimize=True, **kwargs)
        with pytest.raises(CheckpointError, match="different run"):
            run_malignant_pairs(gadget, initial, evaluator,
                                checkpoint=store, **kwargs)

    def test_exhaustive_journal_refuses_cross_optimizer_resume(
            self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        store = CheckpointStore(str(tmp_path / "exhaustive"))
        run_exhaustive(gadget, initial, evaluator, checkpoint=store,
                       optimize=True)
        with pytest.raises(CheckpointError, match="different run"):
            run_exhaustive(gadget, initial, evaluator,
                           checkpoint=store)

    def test_same_marker_resumes_cleanly(self, tiny, tmp_path):
        """An optimized journal carries the optimizer's constant
        marker, so a second optimized run resumes it."""
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        kwargs = dict(trials=300, seed=12, workers=1, optimize=True)
        store = CheckpointStore(str(tmp_path / "marker"))
        first = run_monte_carlo(gadget, initial, evaluator, noise,
                                checkpoint=store, **kwargs)
        assert store.load_header()["fingerprint"]["optimizer"] == MARKER
        again = run_monte_carlo(gadget, initial, evaluator, noise,
                                checkpoint=store, **kwargs)
        assert again == first
        assert again.engine_stats.resumed_verdicts > 0


class TestOptimizedWorkloadEquivalence:
    def test_pairs_and_exhaustive_run_under_optimize(self, tiny):
        gadget, initial, evaluator = tiny
        pairs = run_malignant_pairs(gadget, initial, evaluator,
                                    samples=200, seed=4,
                                    optimize=True)
        assert pairs.samples == 200
        survey = run_exhaustive(gadget, initial, evaluator,
                                optimize=True)
        plain = run_exhaustive(gadget, initial, evaluator)
        # Optimization may only remove fault locations, never add.
        assert survey.checked <= plain.checked


class TestOptimizeArgument:
    """``optimize=`` is a bool, read in one place for the builders and
    the engine alike."""

    @pytest.mark.parametrize("value", [1, "yes", object()],
                             ids=["int", "str", "object"])
    def test_non_bool_is_refused(self, tiny, trivial, value):
        gadget, initial, evaluator = tiny
        with pytest.raises(AnalysisError, match="expects a bool"):
            build_n_gadget(trivial, optimize=value)
        with pytest.raises(AnalysisError, match="expects a bool"):
            run_monte_carlo(gadget, initial, evaluator,
                            NoiseModel.uniform(0.25), 10, seed=1,
                            optimize=value)

    def test_none_means_off(self, trivial):
        assert build_n_gadget(trivial, optimize=None).circuit \
            .operations == build_n_gadget(trivial).circuit.operations

    def test_explicit_locations_are_refused(self, tiny, monkeypatch):
        # Refused before any optimization work is spent on the call.
        gadget, initial, evaluator = tiny

        def never(gadget):
            raise AssertionError("optimized a call bound to be refused")

        monkeypatch.setattr(pipeline, "optimize_gadget", never)
        with pytest.raises(AnalysisError, match="locations="):
            run_exhaustive(gadget, initial, evaluator,
                           locations=gadget.fault_locations(),
                           optimize=True)
