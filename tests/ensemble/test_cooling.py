"""Tests for algorithmic cooling (the ensemble substitute for reset)."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ensemble.cooling import (
    ClosedSystemCooler,
    HeatBathCooler,
    bias_after_rounds,
    compression_circuit,
    compression_density_matrix_bias,
    majority_bias,
    shannon_bound_qubits,
    simulate_compression,
)
from repro.exceptions import ReproError


class TestCompressionStep:
    def test_truth_table_is_majority(self):
        """a <- MAJ(a, b, c) on every basis input."""
        from repro.simulators import StateVector

        circuit = compression_circuit()
        for value in range(8):
            bits = [(value >> 2) & 1, (value >> 1) & 1, value & 1]
            state = StateVector.from_basis_state(bits)
            state.apply_circuit(circuit)
            probabilities = state.probabilities()
            out = int(np.argmax(probabilities))
            majority = int(sum(bits) >= 2)
            assert (out >> 2) & 1 == majority

    def test_density_matrix_matches_formula(self):
        for eps in (0.1, 0.3, 0.7):
            exact = compression_density_matrix_bias([eps, eps, eps])
            assert abs(exact - majority_bias(eps)) < 1e-10

    def test_mixed_bias_density_matrix(self):
        exact = compression_density_matrix_bias([0.2, 0.5, 0.8])
        expected = HeatBathCooler.majority_bias_mixed(0.2, 0.5, 0.8)
        assert abs(exact - expected) < 1e-10

    def test_monte_carlo_matches_formula(self):
        rng = np.random.default_rng(0)
        empirical = simulate_compression([0.3, 0.3, 0.3],
                                         shots=200_000, rng=rng)
        assert abs(empirical - majority_bias(0.3)) < 5e-3

    def test_circuit_is_ensemble_legal(self):
        assert compression_circuit().is_ensemble_safe()


class TestBiasAlgebra:
    @given(st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_majority_bias_stays_in_range(self, eps):
        assert -1.0 - 1e-12 <= majority_bias(eps) <= 1.0 + 1e-12

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_cooling_increases_positive_bias(self, eps):
        assert majority_bias(eps) > eps * 0.99  # strictly warmer -> colder
        if eps < 0.8:
            assert majority_bias(eps) > eps

    def test_bias_out_of_range_rejected(self):
        with pytest.raises(ReproError):
            majority_bias(1.5)

    def test_bias_after_rounds(self):
        assert bias_after_rounds(0.1, 0) == 0.1
        assert abs(bias_after_rounds(0.1, 1)
                   - majority_bias(0.1)) < 1e-15
        assert bias_after_rounds(0.1, 6) > 0.5


class TestClosedSystemCooler:
    def test_qubit_cost_is_exponential(self):
        cooler = ClosedSystemCooler(0.1)
        report = cooler.cool(4)
        assert report.qubits_consumed == 81
        assert report.final_bias == bias_after_rounds(0.1, 4)

    def test_bias_validation(self):
        with pytest.raises(ReproError):
            ClosedSystemCooler(0.0)

    def test_rounds_for_target(self):
        # Each round strictly raises the bias; from 0.2 the fifth round
        # is the first to pass 0.9.
        biases = [bias_after_rounds(0.2, r) for r in range(8)]
        assert all(a < b for a, b in zip(biases, biases[1:]))
        assert biases[4] < 0.9 <= biases[5]
        assert ClosedSystemCooler(0.2).cool(5).final_bias == biases[5]

    def test_unreachable_target(self):
        # A pure ancilla is only the limit: no finite round count
        # reaches bias 1.
        assert all(bias_after_rounds(0.2, r) < 1.0 for r in range(9))

    def test_respects_shannon_bound(self):
        """Closed-system cooling cannot beat the entropy bound."""
        cooler = ClosedSystemCooler(0.05)
        report = cooler.cool(3)
        bound = shannon_bound_qubits(0.05, report.final_bias)
        assert report.qubits_consumed >= bound


class TestHeatBathCooler:
    def test_fixed_point_exceeds_bath(self):
        cooler = HeatBathCooler(0.2)
        fixed = cooler.fixed_point()
        assert fixed > 0.2

    def test_cool_converges_to_fixed_point(self):
        cooler = HeatBathCooler(0.3)
        report = cooler.cool(200)
        assert abs(report.final_bias - cooler.fixed_point()) < 1e-6

    def test_mixed_majority_consistency(self):
        uniform = HeatBathCooler.majority_bias_mixed(0.4, 0.4, 0.4)
        assert abs(uniform - majority_bias(0.4)) < 1e-12

    def test_bath_validation(self):
        with pytest.raises(ReproError):
            HeatBathCooler(1.0)

    def test_qubit_accounting(self):
        report = HeatBathCooler(0.2).cool(5)
        assert report.qubits_consumed == 11


class TestResetSubstitute:
    def test_high_purity_ancilla_from_weak_bias(self):
        """The use case the paper cites: produce a near-|0> ancilla on
        a machine with no reset, starting from thermal 5% bias."""
        cooler = ClosedSystemCooler(0.05)
        rounds = next(r for r in range(17)
                      if bias_after_rounds(0.05, r) >= 0.95)
        report = cooler.cool(rounds)
        assert report.final_bias >= 0.95
        # The price of measuring nothing: lots of raw material.
        assert report.qubits_consumed == 3**rounds
