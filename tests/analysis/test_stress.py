"""Tests for the structured-noise stress certification harness.

The two sharp paper claims are asserted outright (they are the PR's
acceptance criteria): classical-ancilla phase immunity holds under
fully phase-biased noise at every tested p, and the 2k+1 majority vote
fails at correlated burst weight exactly k+1 while surviving every
weight-<=k burst.
"""

import json

import pytest

from repro.analysis import (
    StressReport,
    StressVerdict,
    certify_phase_immunity,
    gadget_cases,
    majority_burst_break_point,
    stress_certify,
    structured_model_family,
)
from repro.analysis.engine import evaluate_fault_pattern
from repro.analysis.stress import DEGRADE, FAIL, PASS
from repro.codes import TrivialCode
from repro.exceptions import AnalysisError


class TestBurstBreakPoint:
    @pytest.mark.parametrize("k", [1, 2])
    def test_majority_vote_breaks_exactly_at_k_plus_1(self, k):
        break_point, report = majority_burst_break_point(k=k)
        assert break_point == k + 1
        assert report.certified
        by_weight = {
            v.model: v for v in report.verdicts
            if v.claim == "burst-radius" and "weight" in v.model
        }
        for weight in range(1, 2 * k + 2):
            verdict = by_weight[f"X-burst(weight={weight})"]
            assert verdict.verdict == PASS
            if weight <= k:
                assert verdict.failure_rate == 0.0
            else:
                assert verdict.failure_rate == 1.0

    def test_invalid_k(self):
        with pytest.raises(AnalysisError):
            majority_burst_break_point(k=0)


class TestPhaseImmunity:
    def test_immune_at_every_tested_p(self):
        report = certify_phase_immunity(code=TrivialCode(),
                                        p_values=(0.1, 0.5, 0.9),
                                        trials=150)
        assert len(report.verdicts) == 3
        assert report.certified
        for verdict in report.verdicts:
            assert verdict.verdict == PASS
            assert verdict.failure_rate == 0.0
            assert verdict.claim == "phase-immunity"


class TestStressCertify:
    def test_small_sweep_produces_full_table(self):
        report = stress_certify(code=TrivialCode(), trials=40, p=0.02,
                                gadgets=("n",),
                                include_structural=False)
        family = structured_model_family(0.02)
        assert len(report.verdicts) == len(family)
        names = {v.model for v in report.verdicts}
        assert names == {name for name, _ in family}
        for verdict in report.verdicts:
            assert verdict.claim == "graceful-degradation"
            assert verdict.verdict in (PASS, DEGRADE, FAIL)
            assert verdict.baseline_rate is not None

    def test_unknown_gadget_rejected(self):
        with pytest.raises(AnalysisError, match="unknown gadget"):
            gadget_cases(TrivialCode(), gadgets=("warp",))

    def test_gadget_suite_is_complete(self):
        cases = gadget_cases(TrivialCode())
        assert [c.name.split("[")[0] for c in cases] \
            == ["N", "T", "Toffoli", "recovery"]

    def test_every_case_accepts_the_fault_free_run(self):
        # The evaluator must judge the registers the gadget leaves its
        # result in, or every trial of that case counts as a failure.
        for case in gadget_cases(TrivialCode()):
            gadget, initial, evaluator = case.factory()
            assert evaluate_fault_pattern(gadget, initial, evaluator,
                                          ()), case.name


class TestStressReport:
    def _sample(self):
        report = StressReport()
        report.add(StressVerdict(claim="c", gadget="g", model="m",
                                 verdict=PASS, failure_rate=0.1,
                                 baseline_rate=0.05, detail="d"))
        report.add(StressVerdict(claim="c", gadget="g", model="m2",
                                 verdict=FAIL, detail="bad"))
        return report

    def test_counts_and_certified(self):
        report = self._sample()
        assert report.counts() == {PASS: 1, DEGRADE: 0, FAIL: 1}
        assert not report.certified
        report.verdicts.pop()
        assert report.certified

    def test_format_table(self):
        table = self._sample().format_table()
        assert "claim" in table and "verdict" in table
        assert "NOT CERTIFIED" in table
        assert "0.1000" in table and "-" in table

    def test_json_round_trip(self):
        payload = json.loads(self._sample().to_json())
        assert payload["certified"] is False
        assert payload["counts"][FAIL] == 1
        assert len(payload["verdicts"]) == 2
        assert payload["verdicts"][1]["failure_rate"] is None
