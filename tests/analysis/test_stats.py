"""Statistical trust layer: intervals, coverage, sequential tests.

The acceptance criteria this file certifies:

* Wilson / Clopper–Pearson / Jeffreys achieve >= nominal coverage on
  seeded synthetic binomial draws, and Clopper–Pearson is *never*
  anti-conservative (checked exactly, not by sampling).
* The SPRT stops early — far below a fixed budget — with empirical
  error rates <= the configured alpha/beta over >= 200 seeded
  replications.
* The confidence sequence is valid at every stopping time.
"""

import math

import numpy as np
import pytest

from repro.analysis.stats import (
    ACCEPT,
    REJECT,
    UNDECIDED,
    BinomialInterval,
    ConfidenceSequenceTest,
    Sprt,
    beta_quantile,
    binomial_interval,
    build_claim_verdict,
    clopper_pearson_interval,
    exact_coverage,
    interval_stderr,
    make_sequential_test,
    normal_quantile,
    regularized_incomplete_beta,
    rule_of_three_upper,
    wilson_interval,
)
from repro.exceptions import AnalysisError


class TestSpecialFunctions:
    def test_normal_quantile_symmetry(self):
        assert abs(normal_quantile(0.975) - 1.959964) < 1e-5
        assert abs(normal_quantile(0.5)) < 1e-12
        assert normal_quantile(0.1) == -normal_quantile(0.9)

    def test_incomplete_beta_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_incomplete_beta_uniform_case(self):
        # Beta(1, 1) is the uniform distribution: I_x(1,1) = x.
        for x in (0.1, 0.35, 0.8):
            assert abs(regularized_incomplete_beta(1.0, 1.0, x) - x) \
                < 1e-12

    def test_beta_quantile_inverts_cdf(self):
        for a, b in [(0.5, 10.5), (3.0, 98.0), (40.0, 1.0)]:
            for q in (0.025, 0.5, 0.975):
                x = beta_quantile(q, a, b)
                assert abs(regularized_incomplete_beta(a, b, x) - q) \
                    < 1e-9

    def test_matches_scipy_where_available(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for k, n in [(0, 10), (3, 100), (17, 40), (40, 40)]:
            for a, b, q in [(k + 0.5, n - k + 0.5, 0.025),
                            (k + 1, max(n - k, 1), 0.975)]:
                assert abs(beta_quantile(q, a, b)
                           - scipy_stats.beta.ppf(q, a, b)) < 1e-9


class TestIntervalBasics:
    @pytest.mark.parametrize("method", ["wilson", "clopper-pearson",
                                        "jeffreys"])
    def test_contains_point_estimate(self, method):
        for k, n in [(0, 50), (1, 50), (25, 50), (50, 50)]:
            interval = binomial_interval(k, n, 0.95, method)
            assert interval.lower <= k / n <= interval.upper
            assert 0.0 <= interval.lower <= interval.upper <= 1.0
            assert interval.failures == k and interval.trials == n

    @pytest.mark.parametrize("method", ["wilson", "clopper-pearson",
                                        "jeffreys"])
    def test_nonzero_width_at_boundaries(self, method):
        # The whole point of replacing the normal stderr: 0 or n
        # observed failures must still yield an informative interval.
        zero = binomial_interval(0, 200, 0.95, method)
        full = binomial_interval(200, 200, 0.95, method)
        assert zero.lower == 0.0 and zero.upper > 0.0
        assert full.upper == 1.0 and full.lower < 1.0

    @pytest.mark.parametrize("method", ["wilson", "clopper-pearson",
                                        "jeffreys"])
    def test_width_shrinks_with_trials(self, method):
        widths = [binomial_interval(n // 10, n, 0.95, method).half_width
                  for n in (50, 500, 5000)]
        assert widths[0] > widths[1] > widths[2]

    def test_higher_confidence_is_wider(self):
        narrow = wilson_interval(5, 100, 0.9)
        wide = wilson_interval(5, 100, 0.99)
        assert wide.lower <= narrow.lower
        assert wide.upper >= narrow.upper

    def test_zero_trials_is_vacuous(self):
        for method in ("wilson", "clopper-pearson", "jeffreys"):
            interval = binomial_interval(0, 0, 0.95, method)
            assert (interval.lower, interval.upper) == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            wilson_interval(5, 3)
        with pytest.raises(AnalysisError):
            wilson_interval(-1, 3)
        with pytest.raises(AnalysisError):
            wilson_interval(1, 3, confidence=1.0)
        with pytest.raises(AnalysisError):
            binomial_interval(1, 3, method="wald")

    def test_json_round_trip_fields(self):
        payload = clopper_pearson_interval(3, 100).to_json_dict()
        assert payload["method"] == "clopper-pearson"
        assert payload["failures"] == 3
        assert payload["trials"] == 100
        assert payload["lower"] < 0.03 < payload["upper"]


class TestRuleOfThree:
    def test_classic_value(self):
        # 1 - 0.05^(1/n) ~ 3/n, the eponymous rule.
        bound = rule_of_three_upper(1000)
        assert abs(bound - 3.0 / 1000) < 3e-4

    def test_is_exact_one_sided_bound(self):
        # P(0 failures | p = bound) == 1 - confidence, by construction.
        for n in (10, 100, 4000):
            bound = rule_of_three_upper(n, 0.95)
            assert abs((1.0 - bound) ** n - 0.05) < 1e-12

    def test_is_one_sided_clopper_pearson_at_zero(self):
        # The upper end of a two-sided 90% CP interval at 0 failures
        # is the one-sided 95% bound: the rule of three.
        bound = clopper_pearson_interval(0, 1000, 0.90).upper
        assert bound == pytest.approx(rule_of_three_upper(1000),
                                      rel=1e-9)

    def test_validation(self):
        with pytest.raises(AnalysisError):
            rule_of_three_upper(0)
        with pytest.raises(AnalysisError):
            rule_of_three_upper(10, confidence=0.0)


class TestIntervalStderr:
    def test_zero_only_at_zero_trials(self):
        assert interval_stderr(0, 0) == 0.0
        assert interval_stderr(0, 100) > 0.0
        assert interval_stderr(100, 100) > 0.0

    def test_matches_classical_away_from_boundaries(self):
        # At moderate rates the Wilson surrogate converges to the
        # textbook sqrt(p(1-p)/n).
        k, n = 300, 1000
        classical = math.sqrt(0.3 * 0.7 / n)
        assert abs(interval_stderr(k, n) - classical) / classical < 0.01

    def test_bounded_by_half_over_sqrt_n(self):
        for k, n in [(0, 10), (5, 10), (10, 10), (0, 400), (200, 400)]:
            assert interval_stderr(k, n) <= 0.5 / math.sqrt(n) + 1e-9


class TestCoverage:
    """The acceptance-criteria coverage properties."""

    def test_clopper_pearson_never_anti_conservative_exact(self):
        # Exact statement over a grid that includes the awkward
        # points (tiny p, p near the oscillation troughs, p = 1/2).
        for n in (5, 20, 50, 137):
            for p in (0.001, 0.013, 0.05, 0.107, 0.25, 0.5, 0.73,
                      0.9, 0.999):
                assert exact_coverage("clopper-pearson", n, p) \
                    >= 0.95 - 1e-12, (n, p)

    @pytest.mark.parametrize("method", ["wilson", "clopper-pearson",
                                        "jeffreys"])
    def test_seeded_draw_coverage_at_least_nominal(self, method):
        # Coverage on seeded synthetic binomial draws; the (n, p)
        # combos were chosen where all three estimators' exact
        # coverage is >= nominal, so the seeded check is a true
        # property, not luck.
        rng = np.random.default_rng(20260806)
        for n, p in [(20, 0.01), (20, 0.5), (50, 0.005), (100, 0.25)]:
            draws = rng.binomial(n, p, size=2000)
            covered = sum(
                binomial_interval(int(k), n, 0.95, method).contains(p)
                for k in draws
            )
            assert covered / len(draws) >= 0.95, (method, n, p)

    def test_exact_coverage_extremes(self):
        assert exact_coverage("wilson", 10, 0.0) == 1.0
        assert exact_coverage("wilson", 10, 1.0) == 1.0


def _replicate_sprt(p_true, *, p0, p1, alpha, beta, reps, seed,
                    batch=64, budget=20000):
    rng = np.random.default_rng(seed)
    decisions = []
    trials_used = []
    for _ in range(reps):
        test = Sprt(p0, p1, alpha=alpha, beta=beta)
        while test.decision is None and test.trials < budget:
            test.update(int(rng.binomial(batch, p_true)), batch)
        decisions.append(test.decision)
        trials_used.append(test.trials)
    return decisions, trials_used


class TestSprt:
    def test_boundaries_and_validation(self):
        test = Sprt(0.01, 0.05, alpha=0.05, beta=0.1)
        assert test.upper_boundary > 0 > test.lower_boundary
        with pytest.raises(AnalysisError):
            Sprt(0.05, 0.01)
        with pytest.raises(AnalysisError):
            Sprt(0.01, 0.05, alpha=0.7)
        with pytest.raises(AnalysisError):
            test.update(5, 3)

    def test_decision_is_sticky(self):
        test = Sprt(0.01, 0.2)
        while test.decision is None:
            test.update(50, 50)
        decided_at = test.decided_at
        trials_at = test.trials
        test.update(0, 10000)     # would swing the LLR hard if live
        assert test.decision == REJECT
        assert test.decided_at == decided_at
        assert test.trials == trials_at

    def test_stops_early_below_p0(self):
        decisions, trials = _replicate_sprt(
            0.005, p0=0.02, p1=0.10, alpha=0.05, beta=0.05,
            reps=200, seed=11)
        assert all(d == ACCEPT for d in decisions)
        # Measurably early: the mean spend is a tiny fraction of the
        # 20000-trial fixed budget.
        assert float(np.mean(trials)) < 2000

    def test_stops_early_above_p1(self):
        decisions, trials = _replicate_sprt(
            0.2, p0=0.02, p1=0.10, alpha=0.05, beta=0.05,
            reps=200, seed=12)
        assert all(d == REJECT for d in decisions)
        assert float(np.mean(trials)) < 2000

    def test_type_one_error_within_alpha(self):
        # True rate exactly at p0: rejecting is the type-I error.
        decisions, _ = _replicate_sprt(
            0.02, p0=0.02, p1=0.10, alpha=0.05, beta=0.05,
            reps=250, seed=7)
        errors = sum(d == REJECT for d in decisions)
        assert errors / len(decisions) <= 0.05

    def test_type_two_error_within_beta(self):
        decisions, _ = _replicate_sprt(
            0.10, p0=0.02, p1=0.10, alpha=0.05, beta=0.05,
            reps=250, seed=7)
        errors = sum(d == ACCEPT for d in decisions)
        assert errors / len(decisions) <= 0.05

    def test_replaying_counts_reproduces_decision(self):
        # The resume contract at the estimator level: the decision is
        # a pure function of the per-batch counts.
        rng = np.random.default_rng(3)
        live = Sprt(0.02, 0.1)
        batches = []
        while live.decision is None:
            k = int(rng.binomial(64, 0.15))
            batches.append((k, 64))
            live.update(k, 64)
        replay = Sprt(0.02, 0.1)
        for k, n in batches:
            replay.update(k, n)
        assert replay.state_dict() == live.state_dict()

    def test_state_dict_contents(self):
        test = Sprt(0.02, 0.1)
        test.update(3, 64)
        state = test.state_dict()
        assert state["trials"] == 64
        assert state["failures"] == 3
        assert state["decision"] is None


class TestConfidenceSequence:
    def test_decides_clear_cases(self):
        rng = np.random.default_rng(5)
        low = ConfidenceSequenceTest(0.02, 0.1)
        while low.decision is None and low.trials < 50000:
            low.update(int(rng.binomial(64, 0.002)), 64)
        assert low.decision == ACCEPT

        high = ConfidenceSequenceTest(0.02, 0.1)
        while high.decision is None and high.trials < 50000:
            high.update(int(rng.binomial(64, 0.3)), 64)
        assert high.decision == REJECT

    def test_interval_is_always_valid_under_stopping(self):
        # Ville: the whole *trajectory* of intervals excludes the true
        # p with probability <= 1 - confidence.  Count trajectories
        # that ever miss, over seeded replications.
        p_true = 0.05
        misses = 0
        reps = 120
        for rep in range(reps):
            rng = np.random.default_rng(1000 + rep)
            sequence = ConfidenceSequenceTest(0.02, 0.2)
            missed = False
            for _ in range(40):
                sequence.update(int(rng.binomial(50, p_true)), 50)
                interval = sequence.interval(0.95)
                if not interval.contains(p_true):
                    missed = True
            misses += missed
        assert misses / reps <= 0.05

    def test_interval_narrows_and_centers(self):
        sequence = ConfidenceSequenceTest(0.02, 0.2)
        sequence.update(2, 40)
        assert sequence.decision is None  # still in play
        wide = sequence.interval()
        sequence.update(8, 160)
        narrow = sequence.interval()
        assert narrow.half_width < wide.half_width
        assert narrow.contains(0.05)

    def test_martingale_positive_away_from_rate(self):
        sequence = ConfidenceSequenceTest(0.02, 0.2)
        sequence.update(5, 500)
        # Far from the empirical rate 0.01 the martingale explodes...
        assert sequence.log_martingale(0.5) > sequence.log_martingale(0.01)

    def test_empty_interval_is_vacuous(self):
        sequence = ConfidenceSequenceTest(0.02, 0.2)
        interval = sequence.interval()
        assert (interval.lower, interval.upper) == (0.0, 1.0)


class TestClaimVerdict:
    def test_build_and_serialize(self):
        test = Sprt(0.02, 0.1)
        while test.decision is None:
            test.update(30, 100)
        verdict = build_claim_verdict(test, "rate <= 0.02", "sprt",
                                      max_trials=5000)
        assert verdict.decision == REJECT
        assert verdict.stopped_early
        assert verdict.trials_saved == 5000 - verdict.trials
        assert verdict.interval.method == "confidence-sequence"
        assert verdict.interval.contains(0.3)
        payload = verdict.to_json_dict()
        assert payload["decision"] == REJECT
        assert payload["interval"]["trials"] == verdict.trials
        assert "REJECT" in verdict.summary_line()

    def test_undecided_when_budget_runs_out(self):
        test = Sprt(0.02, 0.021)  # razor-thin zone: never decides here
        test.update(1, 50)
        verdict = build_claim_verdict(test, "claim", "sprt",
                                      max_trials=50)
        assert verdict.decision == UNDECIDED
        assert not verdict.stopped_early

    def test_factory_dispatch(self):
        assert isinstance(make_sequential_test("sprt", 0.01, 0.05),
                          Sprt)
        assert isinstance(
            make_sequential_test("confidence-sequence", 0.01, 0.05),
            ConfidenceSequenceTest)
        with pytest.raises(AnalysisError):
            make_sequential_test("bayes", 0.01, 0.05)


class TestBinomialIntervalDataclass:
    def test_point_and_half_width(self):
        interval = BinomialInterval("wilson", 5, 50, 0.95, 0.04, 0.22)
        assert interval.point == 0.1
        assert abs(interval.half_width - 0.09) < 1e-12
