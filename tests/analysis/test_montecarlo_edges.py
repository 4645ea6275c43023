"""Edge-case statistics for the Monte-Carlo result types.

Covers the degenerate regimes the samplers must not mis-report:
zero-trial runs, all-failure and no-failure runs, standard-error
bounds, and empty malignant-pair estimates — in-process and on a
worker pool.
"""

import math

import pytest

from repro.analysis import (
    GadgetMonteCarloResult,
    MalignantPairSample,
    interval_stderr,
    n_gadget_evaluator,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.analysis.stats import normal_quantile
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


class TestMonteCarloResultEdges:
    def test_zero_trials(self, tiny):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.5)
        serial = run_monte_carlo(gadget, initial, evaluator, noise,
                                 trials=0, seed=1)
        pooled = run_monte_carlo(gadget, initial, evaluator, noise,
                                 trials=0, seed=1, workers=2)
        for result in (serial, pooled):
            assert result.trials == 0
            assert result.failures == 0
            assert result.failure_rate == 0.0
            assert result.fault_count_histogram == {}
            assert result.failures_by_fault_count == {}
        assert serial == pooled

    @pytest.mark.parametrize("options", [{}, {"workers": 2}])
    def test_all_failure_run(self, tiny, options):
        """p=1 strikes every location and a constant-False evaluator
        fails every trial."""
        gadget, initial, _ = tiny
        noise = NoiseModel.uniform(1.0)
        result = run_monte_carlo(gadget, initial, lambda s: False,
                                 noise, trials=40, seed=2,
                                 **options)
        assert result.failures == 40
        assert result.failure_rate == 1.0
        assert sum(result.failures_by_fault_count.values()) == 40
        assert 0 not in result.fault_count_histogram

    @pytest.mark.parametrize("options", [{}, {"workers": 2}])
    def test_no_failure_run(self, tiny, options):
        gadget, initial, _ = tiny
        noise = NoiseModel.uniform(0.5)
        result = run_monte_carlo(gadget, initial, lambda s: True,
                                 noise, trials=60, seed=3,
                                 **options)
        assert result.failures == 0
        assert result.failure_rate == 0.0
        assert result.failures_by_fault_count == {}
        assert result.single_fault_failures == 0

    def test_stderr_bounds(self):
        """The result's standard error is positive for any finished
        run and never above the p=1/2 worst case (the grid points
        test_stats does not already cover)."""
        for trials, failures in [(400, 123), (1, 1)]:
            result = GadgetMonteCarloResult(
                p=0.1, trials=trials, failures=failures,
                failures_by_fault_count={}, fault_count_histogram={},
            )
            stderr = interval_stderr(result.failures, result.trials)
            assert stderr > 0.0
            assert stderr <= 0.5 / math.sqrt(trials) + 1e-9

    def test_failure_rate_zero_trials_is_zero_not_nan(self):
        result = GadgetMonteCarloResult(
            p=0.1, trials=0, failures=0,
            failures_by_fault_count={}, fault_count_histogram={},
        )
        assert result.failure_rate == 0.0


class TestResultIntervals:
    """The certified-interval methods that replace +-stderr bands."""

    def test_interval_matches_stats_layer(self):
        from repro.analysis import binomial_interval

        result = GadgetMonteCarloResult(
            p=0.1, trials=200, failures=7,
            failures_by_fault_count={}, fault_count_histogram={},
        )
        assert result.interval() == binomial_interval(7, 200)
        assert result.interval(0.99, "clopper-pearson") == \
            binomial_interval(7, 200, 0.99, "clopper-pearson")
        assert result.interval().contains(result.failure_rate)

    def test_zero_failures_interval_is_informative(self):
        result = GadgetMonteCarloResult(
            p=0.01, trials=1000, failures=0,
            failures_by_fault_count={}, fault_count_histogram={},
        )
        interval = result.interval()
        assert interval.lower == 0.0
        assert 0.0 < interval.upper < 0.01

    def test_upper_bound_tracks_rule_of_three(self):
        from repro.analysis import rule_of_three_upper

        result = GadgetMonteCarloResult(
            p=0.01, trials=1000, failures=0,
            failures_by_fault_count={}, fault_count_histogram={},
        )
        # The upper end of the two-sided 90% CP interval is the
        # one-sided 95% bound; at 0 failures it IS the rule of three.
        bound = result.interval(0.90, "clopper-pearson").upper
        assert bound == pytest.approx(rule_of_three_upper(1000),
                                      rel=1e-9)
        assert bound >= result.failure_rate

    def test_upper_bound_edges(self):
        full = GadgetMonteCarloResult(
            p=0.1, trials=50, failures=50,
            failures_by_fault_count={}, fault_count_histogram={},
        )
        for method in ("wilson", "clopper-pearson", "jeffreys"):
            interval = full.interval(method=method)
            assert interval.upper == pytest.approx(1.0)
            assert interval.lower < 1.0

    def test_stderr_alias_matches_interval_stderr(self):
        """interval_stderr (what the removed ``.stderr`` alias
        returned) is the result's Wilson half-width over z, so a
        +-stderr band and interval() describe the same spread."""
        result = GadgetMonteCarloResult(
            p=0.1, trials=400, failures=123,
            failures_by_fault_count={}, fault_count_histogram={},
        )
        z = normal_quantile(0.975)
        assert interval_stderr(result.failures, result.trials) == \
            pytest.approx(result.interval().half_width / z, rel=1e-12)


class TestPairSampleIntervals:
    def test_fraction_interval(self):
        sample = MalignantPairSample(samples=500, malignant=25,
                                     num_locations=20)
        interval = sample.interval()
        assert interval.contains(0.05)
        assert interval.trials == 500

    def test_threshold_interval_brackets_estimate(self):
        # p_th ~ 1/M is monotone decreasing in the malignant fraction,
        # so the fraction interval's ends bracket the threshold
        # estimate from the other side.
        sample = MalignantPairSample(samples=500, malignant=25,
                                     num_locations=20)
        fraction = sample.interval(method="clopper-pearson")
        pairs = sample.location_pairs
        lower = 1.0 / (fraction.upper * pairs)
        upper = 1.0 / (fraction.lower * pairs)
        assert lower < sample.threshold_estimate < upper

    def test_threshold_interval_zero_malignant(self):
        # The fraction interval reaches 0: a safe threshold floor
        # exists (from the fraction's upper bound) but no finite
        # point estimate or ceiling.
        sample = MalignantPairSample(samples=500, malignant=0,
                                     num_locations=20)
        fraction = sample.interval(method="clopper-pearson")
        assert fraction.lower == 0.0
        assert fraction.upper > 0.0
        assert 1.0 / (fraction.upper * sample.location_pairs) > 0.0
        assert sample.threshold_estimate is None


class TestMalignantPairSampleEdges:
    def test_zero_samples_statistics(self):
        sample = MalignantPairSample(samples=0, malignant=0,
                                     num_locations=10)
        assert sample.malignant_fraction == 0.0
        assert sample.estimated_malignant_pairs == 0.0
        assert sample.threshold_estimate is None
        assert sample.location_pairs == 45

    def test_no_malignant_pairs_means_no_threshold(self):
        sample = MalignantPairSample(samples=500, malignant=0,
                                     num_locations=20)
        assert sample.malignant_fraction == 0.0
        assert sample.threshold_estimate is None

    def test_all_malignant(self):
        sample = MalignantPairSample(samples=100, malignant=100,
                                     num_locations=4)
        assert sample.malignant_fraction == 1.0
        assert sample.estimated_malignant_pairs == 6.0
        assert sample.threshold_estimate == pytest.approx(1 / 6)

    @pytest.mark.parametrize("options", [{}, {"workers": 2}])
    def test_zero_samples_run(self, tiny, options):
        gadget, initial, evaluator = tiny
        sample = run_malignant_pairs(gadget, initial, evaluator,
                                     samples=0, seed=4, **options)
        assert sample.samples == 0
        assert sample.malignant == 0
        assert sample.threshold_estimate is None

    @pytest.mark.parametrize("options", [{}, {"workers": 2}])
    def test_never_malignant_evaluator(self, tiny, options):
        gadget, initial, _ = tiny
        sample = run_malignant_pairs(gadget, initial,
                                     lambda s: True, samples=50,
                                     seed=5, **options)
        assert sample.malignant == 0
        assert sample.threshold_estimate is None

    @pytest.mark.parametrize("options", [{}, {"workers": 2}])
    def test_always_malignant_evaluator(self, tiny, options):
        gadget, initial, _ = tiny
        sample = run_malignant_pairs(gadget, initial,
                                     lambda s: False, samples=50,
                                     seed=6, **options)
        assert sample.malignant == 50
        assert sample.malignant_fraction == 1.0
        assert sample.threshold_estimate is not None
