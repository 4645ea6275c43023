"""Tests for the analysis layer: propagation surveys, thresholds,
Monte Carlo, scaling fits and evaluators."""

import numpy as np
import pytest

from repro.analysis import (
    GadgetFaultAnalyzer,
    fit_power_law,
    n_gadget_evaluator,
    recovered_overlap_evaluator,
    run_malignant_pairs,
    run_monte_carlo,
    sweep_p,
)
from repro.exceptions import AnalysisError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel


class TestScalingFits:
    def test_recovers_quadratic(self):
        ps = np.array([1e-3, 3e-3, 1e-2, 3e-2])
        rates = 7.0 * ps**2
        fit = fit_power_law(ps, rates)
        assert abs(fit.exponent - 2.0) < 1e-6
        assert abs(fit.coefficient - 7.0) < 1e-3

    def test_recovers_linear(self):
        ps = np.array([1e-3, 1e-2, 1e-1])
        fit = fit_power_law(ps, 0.5 * ps)
        assert abs(fit.exponent - 1.0) < 1e-6

    def test_zero_rates_dropped(self):
        fit = fit_power_law([1e-3, 1e-2, 1e-1],
                            [0.0, 1e-4, 1e-2])
        assert fit.points_used == 2

    def test_too_few_points(self):
        with pytest.raises(AnalysisError):
            fit_power_law([1e-3, 1e-2], [0.0, 0.0])

    def test_negative_p_rejected(self):
        with pytest.raises(AnalysisError):
            fit_power_law([-1e-3, 1e-2], [1e-3, 1e-2])

    def test_predict(self):
        # The fitted law extrapolates to a p outside the data.
        fit = fit_power_law([1e-2, 1e-1], [1e-4, 1e-2])
        assert abs(fit.coefficient * 1e-3**fit.exponent - 1e-6) < 1e-9


class TestSymbolicAnalyzer:
    def test_location_enumeration_scopes_inputs(self, steane):
        gadget = build_n_gadget(steane)
        analyzer = GadgetFaultAnalyzer(gadget, steane)
        input_locations = [loc for loc in analyzer.locations
                           if loc.kind == "input"]
        # Only the quantum-ancilla block carries input faults.
        assert all(set(loc.qubits) <= set(gadget.qubits("quantum"))
                   for loc in input_locations)

    def test_signature_judgement(self, steane):
        from repro.analysis.propagation import ResidualSignature

        gadget = build_n_gadget(steane)
        analyzer = GadgetFaultAnalyzer(gadget, steane)
        benign = ResidualSignature(
            x_support=(("quantum", frozenset({0})),), z_support=()
        )
        assert analyzer.is_acceptable(benign)
        malignant = ResidualSignature(
            x_support=(("quantum", frozenset({0, 1})),), z_support=()
        )
        assert not analyzer.is_acceptable(malignant)

    def test_phase_on_classical_ignored(self, steane):
        from repro.analysis.propagation import ResidualSignature

        gadget = build_n_gadget(steane)
        analyzer = GadgetFaultAnalyzer(gadget, steane)
        signature = ResidualSignature(
            x_support=(),
            z_support=(("classical", frozenset(range(7))),),
        )
        assert analyzer.is_acceptable(signature)

    def test_symbolic_is_conservative(self, steane):
        """Documented property: the symbolic survey over-counts (it
        cannot see the classical cancellation in N_1), so its failure
        list is a superset of the true (empty) one."""
        gadget = build_n_gadget(steane)
        analyzer = GadgetFaultAnalyzer(gadget, steane)
        survey = analyzer.single_fault_survey()
        assert len(survey.failures) > 0  # over-approximation, by design

    def test_location_counts_and_pair_count(self, trivial):
        analyzer = GadgetFaultAnalyzer(build_n_gadget(trivial), trivial)
        assert analyzer.space.kind_counts()["total"] > 0
        assert analyzer.single_fault_survey().count_malignant_pairs() >= 0


class TestMonteCarlo:
    def test_single_faults_never_fail(self, steane):
        gadget = build_n_gadget(steane)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(steane, 0)}
        )
        evaluator = n_gadget_evaluator(gadget, steane, 0)
        result = run_monte_carlo(
            gadget, initial, evaluator,
            NoiseModel.uniform(3e-3), trials=400, seed=0,
        )
        assert result.single_fault_failures == 0

    def test_failure_rate_grows_with_p(self, steane):
        gadget = build_n_gadget(steane)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(steane, 0)}
        )
        evaluator = n_gadget_evaluator(gadget, steane, 0)
        results = sweep_p(gadget, initial, evaluator,
                          p_values=[3e-3, 6e-2], trials=250, seed=1)
        assert results[1].failure_rate > results[0].failure_rate

    def test_sampled_malignant_pairs(self, steane):
        gadget = build_n_gadget(steane)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(steane, 0)}
        )
        evaluator = n_gadget_evaluator(gadget, steane, 0)
        sample = run_malignant_pairs(gadget, initial, evaluator,
                                     samples=150, seed=2)
        assert 0.0 <= sample.malignant_fraction <= 1.0
        assert sample.location_pairs > 10_000
        if sample.malignant > 0:
            assert sample.threshold_estimate is not None


class TestEvaluators:
    def test_recovered_overlap_evaluator_accepts_clean(self, steane):
        from repro.ft import build_t_gadget, expected_t_output, \
            sparse_logical_state, t_gadget_inputs

        gadget = build_t_gadget(steane)
        data = sparse_logical_state(steane, {(0,): 1.0})
        out = gadget.run(t_gadget_inputs(gadget, steane, data))
        evaluator = recovered_overlap_evaluator(
            gadget, steane, ["data"], expected_t_output(steane, 1.0, 0.0)
        )
        assert evaluator(out)

    def test_n_evaluator_rejects_majority_corruption(self, steane):
        from repro.circuits import PauliString

        gadget = build_n_gadget(steane)
        state = gadget.run(
            {"quantum": sparse_coset_state(steane, 0)}
        )
        # Flip four classical output bits by hand.
        classical = gadget.qubits("classical")
        for qubit in classical[:4]:
            state.apply_pauli(PauliString.single(
                state.num_qubits, qubit, "X"
            ))
        evaluator = n_gadget_evaluator(gadget, steane, 0)
        assert not evaluator(state)
