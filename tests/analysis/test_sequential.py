"""Sequential certification runners: early stopping + determinism.

The determinism contract under test: a sequential run's samples are a
bit-identical *prefix* of the fixed-budget run at the same
``(seed, batch_size)`` — the stopping rule changes how many trials are
drawn, never which ones — and the adaptive sweep's allocation schedule
is a pure function of accumulated counts, hence reproducible for any
worker count.
"""

import pytest

from repro.analysis import n_gadget_evaluator
from repro.analysis.montecarlo import run_monte_carlo
from repro.analysis.sequential import (
    _pick_adaptive_point,
    adaptive_sweep_p,
    run_sequential_monte_carlo,
    run_sequential_pair_sampling,
)
from repro.analysis.stats import ACCEPT, REJECT, UNDECIDED
from repro.analysis.stress import stress_certify
from repro.analysis.threshold import sampled_threshold_report
from repro.exceptions import AnalysisError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


class TestSequentialMonteCarlo:
    def test_rejects_noisy_gadget_early(self, tiny):
        gadget, initial, evaluator = tiny
        outcome = run_sequential_monte_carlo(
            gadget, initial, evaluator, NoiseModel.uniform(0.05),
            p0=0.01, p1=0.05, max_trials=8000, seed=99,
            batch_size=128)
        assert outcome.decision == REJECT
        assert outcome.verdict.stopped_early
        assert outcome.result.trials < 8000
        assert outcome.result.trials == outcome.verdict.trials
        assert outcome.batches * 128 >= outcome.result.trials
        # The always-valid interval ships with the verdict and brackets
        # the observed rate.
        assert outcome.verdict.interval.contains(
            outcome.result.failure_rate)

    def test_accepts_quiet_gadget_early(self, tiny):
        gadget, initial, evaluator = tiny
        outcome = run_sequential_monte_carlo(
            gadget, initial, evaluator, NoiseModel.uniform(0.001),
            p0=0.01, p1=0.05, max_trials=8000, seed=7,
            batch_size=128)
        assert outcome.decision == ACCEPT
        assert outcome.verdict.stopped_early
        assert outcome.verdict.trials_saved > 0

    def test_prefix_of_fixed_budget_run(self, tiny):
        """The acceptance-criteria determinism property: trials
        consumed sequentially == the fixed run's first chunks."""
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.05)
        outcome = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise,
            p0=0.01, p1=0.05, max_trials=8000, seed=99,
            batch_size=128)
        fixed = run_monte_carlo(
            gadget, initial, evaluator, noise,
            trials=outcome.result.trials, seed=99, chunk_size=128)
        assert outcome.result.failures == fixed.failures
        assert outcome.result.fault_count_histogram == \
            fixed.fault_count_histogram
        assert outcome.result.failures_by_fault_count == \
            fixed.failures_by_fault_count

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_count_invariance(self, tiny, workers):
        gadget, initial, evaluator = tiny
        outcome = run_sequential_monte_carlo(
            gadget, initial, evaluator, NoiseModel.uniform(0.05),
            p0=0.01, p1=0.05, max_trials=4000, seed=99,
            batch_size=128, workers=workers)
        # Pinned against the workers=1 run: identical verdict and
        # counts regardless of parallelism.
        assert outcome.decision == REJECT
        assert outcome.result.trials == 128
        assert outcome.result.failures == 8

    def test_undecided_when_budget_exhausted(self, tiny):
        gadget, initial, evaluator = tiny
        # True rate ~0.0625 sits inside (p0, p1) and one batch of LLR
        # increments cannot reach either boundary.
        outcome = run_sequential_monte_carlo(
            gadget, initial, evaluator, NoiseModel.uniform(0.05),
            p0=0.055, p1=0.075, max_trials=128, seed=99,
            batch_size=128)
        assert outcome.decision == UNDECIDED
        assert outcome.result.trials == 128
        assert not outcome.verdict.stopped_early

    def test_confidence_sequence_method(self, tiny):
        gadget, initial, evaluator = tiny
        outcome = run_sequential_monte_carlo(
            gadget, initial, evaluator, NoiseModel.uniform(0.05),
            p0=0.005, p1=0.03, max_trials=4000, seed=99,
            batch_size=128, method="confidence-sequence")
        assert outcome.decision == REJECT
        assert outcome.verdict.method == "confidence-sequence"

    def test_validation(self, tiny):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.05)
        with pytest.raises(AnalysisError):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise,
                p0=0.01, p1=0.05, max_trials=100, seed=None)
        with pytest.raises(AnalysisError):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise,
                p0=0.05, p1=0.01, max_trials=100, seed=1)
        with pytest.raises(AnalysisError):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise,
                p0=0.01, p1=0.05, max_trials=100, seed=1,
                method="bayes")
        with pytest.raises(AnalysisError):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise,
                p0=0.01, p1=0.05, max_trials=0, seed=1)

    def test_checkpoint_without_a_cache_replays(self, tiny, tmp_path):
        # Checkpointing supplies its own verdict cache, so a rerun of a
        # finished journal replays it without simulating anything.
        gadget, initial, evaluator = tiny

        def run():
            return run_sequential_monte_carlo(
                gadget, initial, evaluator, NoiseModel.uniform(0.05),
                p0=0.01, p1=0.05, max_trials=100, seed=1,
                checkpoint=str(tmp_path / "run"))

        first, replay = run(), run()
        assert replay.verdict == first.verdict
        assert replay.result == first.result
        assert first.result.engine_stats.evaluations > 0
        assert replay.result.engine_stats.evaluations == 0


class TestSequentialPairSampling:
    def test_decides_malignant_fraction(self, tiny):
        gadget, initial, evaluator = tiny
        outcome = run_sequential_pair_sampling(
            gadget, initial, evaluator,
            f0=0.2, f1=0.6, max_samples=2000, seed=17,
            batch_size=128)
        # The trivial N gadget's pair fraction is large, so the claim
        # "fraction <= 0.2" is rejected within the first batches.
        assert outcome.decision == REJECT
        assert outcome.sample.samples < 2000
        assert outcome.sample.samples == outcome.verdict.trials
        assert outcome.sample.malignant == outcome.verdict.failures

    def test_seed_required(self, tiny):
        gadget, initial, evaluator = tiny
        with pytest.raises(AnalysisError):
            run_sequential_pair_sampling(
                gadget, initial, evaluator,
                f0=0.1, f1=0.3, max_samples=100, seed=None)


class TestPickAdaptivePoint:
    def test_min_batches_served_first_in_index_order(self):
        index, _ = _pick_adaptive_point(
            trials=[128, 0, 0], failures=[3, 0, 0],
            batches=[1, 0, 0], min_batches_per_point=1,
            confidence=0.95, interval_method="wilson", boundary=None)
        assert index == 1

    def test_widest_interval_wins(self):
        # Point 0: 50/100 — wide interval; point 1: 10/1000 — narrow.
        index, intervals = _pick_adaptive_point(
            trials=[100, 1000], failures=[50, 10],
            batches=[1, 1], min_batches_per_point=1,
            confidence=0.95, interval_method="wilson", boundary=None)
        assert index == 0
        assert intervals[0].half_width > intervals[1].half_width

    def test_boundary_straddle_outranks_width(self):
        # Point 1's interval straddles the decision boundary 0.01;
        # point 0's is wider but settled.  Budget goes to the open
        # decision.
        index, intervals = _pick_adaptive_point(
            trials=[100, 1000], failures=[50, 10],
            batches=[1, 1], min_batches_per_point=1,
            confidence=0.95, interval_method="wilson", boundary=0.01)
        assert intervals[1].contains(0.01)
        assert not intervals[0].contains(0.01)
        assert index == 1

    def test_tie_breaks_to_lowest_index(self):
        index, _ = _pick_adaptive_point(
            trials=[100, 100], failures=[5, 5],
            batches=[1, 1], min_batches_per_point=1,
            confidence=0.95, interval_method="wilson", boundary=None)
        assert index == 0


class TestAdaptiveSweep:
    def test_allocation_concentrates_on_noisy_points(self, tiny):
        gadget, initial, evaluator = tiny
        sweep = adaptive_sweep_p(
            gadget, initial, evaluator, [0.01, 0.05, 0.2],
            total_trials=12 * 128, seed=5, batch_size=128)
        # Pinned deterministic schedule: every point gets its minimum
        # batch, the rest flow to the widest (noisiest) intervals.
        assert sweep.allocation == [1, 3, 8]
        assert sum(sweep.allocation) == 12
        assert sweep.total_trials == 12 * 128
        assert all(count >= 1 for count in sweep.allocation)
        assert [result.trials for result in sweep.results] == \
            [128, 3 * 128, 8 * 128]
        for result, interval in zip(sweep.results, sweep.intervals):
            assert interval.failures == result.failures
            assert interval.trials == result.trials

    def test_schedule_is_reproducible(self, tiny):
        gadget, initial, evaluator = tiny
        first = adaptive_sweep_p(
            gadget, initial, evaluator, [0.01, 0.05, 0.2],
            total_trials=12 * 128, seed=5, batch_size=128)
        again = adaptive_sweep_p(
            gadget, initial, evaluator, [0.01, 0.05, 0.2],
            total_trials=12 * 128, seed=5, batch_size=128, workers=2)
        assert again.allocation == first.allocation
        assert again.results == first.results

    def test_points_match_fixed_run_prefix(self, tiny):
        """Each point's trials are a prefix of the fixed-budget run at
        the sweep_p seed convention (seed + index)."""
        gadget, initial, evaluator = tiny
        sweep = adaptive_sweep_p(
            gadget, initial, evaluator, [0.01, 0.05, 0.2],
            total_trials=12 * 128, seed=5, batch_size=128)
        for index, result in enumerate(sweep.results):
            fixed = run_monte_carlo(
                gadget, initial, evaluator,
                NoiseModel.uniform(sweep.results[index].p),
                trials=result.trials, seed=5 + index, chunk_size=128)
            assert result.failures == fixed.failures
            assert result.fault_count_histogram == \
                fixed.fault_count_histogram

    def test_validation(self, tiny):
        gadget, initial, evaluator = tiny
        with pytest.raises(AnalysisError):
            adaptive_sweep_p(gadget, initial, evaluator, [0.01, 0.05],
                             total_trials=100, seed=None)
        with pytest.raises(AnalysisError):
            adaptive_sweep_p(gadget, initial, evaluator, [],
                             total_trials=1000, seed=1)
        with pytest.raises(AnalysisError):
            # Budget below one batch per point.
            adaptive_sweep_p(gadget, initial, evaluator, [0.01, 0.05],
                             total_trials=128, seed=1, batch_size=128)
        with pytest.raises(AnalysisError):
            adaptive_sweep_p(gadget, initial, evaluator, [0.01],
                             total_trials=256, seed=1, batch_size=128,
                             min_batches_per_point=0)


class TestThresholdCertification:
    def test_certified_report_carries_verdict(self, tiny):
        gadget, initial, evaluator = tiny
        report = sampled_threshold_report(
            gadget, initial, evaluator, samples=2000, seed=13,
            certify_threshold_at=0.02)
        assert report.threshold_verdict is not None
        assert report.threshold_verdict.decision in (
            ACCEPT, REJECT, UNDECIDED)
        assert "p_th >= 0.02" in report.threshold_verdict.claim
        assert report.pair_interval is not None

    def test_fixed_report_has_no_verdict(self, tiny):
        gadget, initial, evaluator = tiny
        report = sampled_threshold_report(
            gadget, initial, evaluator, samples=200, seed=13)
        assert report.threshold_verdict is None
        assert report.pair_interval is not None
        assert report.pair_interval.trials == 200

    def test_bad_targets_rejected(self, tiny):
        gadget, initial, evaluator = tiny
        with pytest.raises(AnalysisError):
            sampled_threshold_report(
                gadget, initial, evaluator, samples=100, seed=1,
                certify_threshold_at=-0.5)
        with pytest.raises(AnalysisError):
            sampled_threshold_report(
                gadget, initial, evaluator, samples=100, seed=1,
                certify_threshold_at=0.02, threshold_margin=0.5)


class TestStressSequentialMode:
    def test_sequential_rows_carry_decisions(self, trivial):
        report = stress_certify(
            trivial, trials=150, seed=41, sequential=True,
            gadgets=("n",), include_structural=False)
        rows = [v for v in report.verdicts
                if v.claim == "graceful-degradation"]
        assert rows
        for verdict in rows:
            assert "sequential" in verdict.detail
            assert verdict.trials_used is not None
            assert verdict.trials_used <= 150
            assert verdict.ci_low is not None
            assert verdict.ci_high is not None


def _progress_mc(tiny, **kwargs):
    # Budget 60 = three batches of 16 and a short one of 12.
    outcome = run_sequential_monte_carlo(
        *tiny, NoiseModel.uniform(0.2), p0=0.15, p1=0.35,
        max_trials=60, seed=3, batch_size=16, **kwargs)
    return outcome.result.trials, outcome.batches, 60


def _progress_pairs(tiny, **kwargs):
    outcome = run_sequential_pair_sampling(
        *tiny, f0=0.7, f1=0.8, max_samples=60, seed=3, batch_size=16,
        **kwargs)
    return outcome.sample.samples, outcome.batches, 60


def _progress_adaptive(tiny, **kwargs):
    # 70 trials buy four whole batches: the budget counted is 64.
    sweep = adaptive_sweep_p(*tiny, [0.1, 0.2], 70, seed=3,
                             batch_size=16, **kwargs)
    return sweep.total_trials, sum(sweep.allocation), 64


class TestProgressRule:
    """One rule for all three runners: one ``sample`` event per drawn
    batch, emitted before the batch is evaluated, counting trials (or
    pair samples) against the spendable budget."""

    @pytest.mark.parametrize("run", [_progress_mc, _progress_pairs,
                                     _progress_adaptive],
                             ids=["monte_carlo", "pairs", "adaptive"])
    def test_one_sample_event_per_batch_before_evaluation(self, tiny,
                                                          run):
        events = []
        trials, batches, total = run(tiny, progress=events.append)
        samples = [event for event in events if event.phase == "sample"]
        assert batches > 1
        assert len(samples) == batches
        assert [event.chunk_index for event in samples] == \
            list(range(batches))
        assert [event.done for event in samples] == \
            [min(16 * (index + 1), total) for index in range(batches)]
        assert samples[-1].done == trials
        assert {event.total for event in samples} == {total}
        assert {event.chunks_total for event in samples} == \
            {-(-total // 16)}
        phases = [event.phase for event in events]
        runs = [phase for index, phase in enumerate(phases)
                if index == 0 or phase != phases[index - 1]]
        assert runs == ["sample", "evaluate"] * batches
