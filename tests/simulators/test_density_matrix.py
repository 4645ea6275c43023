"""Tests for the density-matrix simulator."""

import numpy as np
import pytest

from repro.circuits import Circuit, PauliString, gates
from repro.exceptions import SimulationError
from repro.simulators import (
    DensityMatrix,
    StateVector,
    bit_flip,
    depolarizing,
    dephasing,
)


def bell_density() -> DensityMatrix:
    state = StateVector(2)
    state.apply_gate(gates.H, [0])
    state.apply_gate(gates.CNOT, [0, 1])
    return DensityMatrix.from_statevector(state)


class TestConstruction:
    def test_default_is_zero_state(self):
        rho = DensityMatrix(1)
        assert abs(rho.matrix[0, 0] - 1.0) < 1e-12

    def test_maximally_mixed(self):
        # Depolarizing at p = 3/4 sends any qubit to I/2.
        rho = DensityMatrix(2)
        for qubit in range(2):
            rho.apply_pauli_channel(depolarizing(0.75), [qubit])
        assert np.allclose(rho.matrix, np.eye(4) / 4)
        assert abs(rho.purity() - 0.25) < 1e-12

    def test_trace_checked(self):
        with pytest.raises(SimulationError):
            DensityMatrix(1, np.eye(2))


class TestEvolution:
    def test_gate_application_matches_pure(self):
        rho = DensityMatrix(2)
        rho.apply_gate(gates.H, [0])
        rho.apply_gate(gates.CNOT, [0, 1])
        assert abs(rho.matrix[0, 3] - 0.5) < 1e-12

    def test_gate_on_second_qubit(self):
        rho = DensityMatrix(2)
        rho.apply_gate(gates.X, [1])
        assert abs(rho.matrix[1, 1] - 1.0) < 1e-12

    def test_apply_circuit_rejects_measurement(self):
        circuit = Circuit(1, 1).measure(0, 0)
        with pytest.raises(SimulationError):
            DensityMatrix(1).apply_circuit(circuit)


class TestChannels:
    def test_full_bit_flip(self):
        rho = DensityMatrix(1)
        rho.apply_pauli_channel(bit_flip(1.0), [0])
        assert abs(rho.matrix[1, 1] - 1.0) < 1e-12

    def test_depolarizing_mixes(self):
        rho = DensityMatrix(1)
        rho.apply_pauli_channel(depolarizing(0.75), [0])
        # p=3/4 uniform depolarizing sends |0><0| to I/2.
        assert abs(rho.matrix[0, 0] - 0.5) < 1e-9

    def test_dephasing_kills_coherence(self):
        rho = DensityMatrix(1)
        rho.apply_gate(gates.H, [0])
        rho.apply_kraus(dephasing(1.0), [0])
        assert abs(rho.matrix[0, 1]) < 1e-12
        assert abs(rho.matrix[0, 0] - 0.5) < 1e-12

    def test_dephase_method(self):
        rho = bell_density()
        rho.dephase(0)
        assert abs(rho.purity() - 0.5) < 1e-9
        # Classical correlations survive dephasing.
        assert abs(rho.expectation_pauli(
            PauliString.from_label("ZZ")).real - 1.0) < 1e-9


class TestReadout:
    def test_expectation_z(self):
        rho = DensityMatrix(1)
        assert abs(rho.expectation_z(0) - 1.0) < 1e-12
        rho.apply_gate(gates.X, [0])
        assert abs(rho.expectation_z(0) + 1.0) < 1e-12

    def test_probabilities(self):
        rho = bell_density()
        probs = rho.probabilities()
        assert abs(probs[0] - 0.5) < 1e-12
        assert abs(probs[3] - 0.5) < 1e-12

    def test_measure_and_project(self):
        rng = np.random.default_rng(1)
        rho = bell_density()
        outcome = rho.measure(0, rng)
        assert abs(rho.probability_of_outcome(1, outcome) - 1.0) < 1e-9

    def test_project_impossible(self):
        with pytest.raises(SimulationError):
            DensityMatrix(1).project(0, 1)


class TestPartialTrace:
    def test_bell_marginal_is_mixed(self):
        reduced = bell_density().partial_trace([0])
        assert abs(reduced.purity() - 0.5) < 1e-12

    def test_product_state_marginal_is_pure(self):
        state = StateVector.from_basis_state([1, 0])
        rho = DensityMatrix.from_statevector(state)
        reduced = rho.partial_trace([0])
        assert abs(reduced.matrix[1, 1] - 1.0) < 1e-12

    def test_keep_order_respected(self):
        state = StateVector.from_basis_state([1, 0, 0])
        rho = DensityMatrix.from_statevector(state)
        reduced = rho.partial_trace([1, 0])
        # Qubit order (1, 0): value should be |01>.
        assert abs(reduced.matrix[0b01, 0b01] - 1.0) < 1e-12

    def test_fidelity_with_pure(self):
        rho = bell_density()
        state = StateVector(2)
        state.apply_gate(gates.H, [0])
        state.apply_gate(gates.CNOT, [0, 1])
        assert abs(rho.fidelity_with_pure(state) - 1.0) < 1e-12


class TestNoiseAndMeasurement:
    def test_depolarizing_decoheres(self):
        rho = DensityMatrix(1)
        rho.apply_gate(gates.H, [0])
        rho.apply_pauli_channel(depolarizing(0.2), [0])
        assert rho.purity() < 1.0 - 1e-6

    def test_measurement_collapses(self):
        rho = DensityMatrix(1)
        rho.apply_gate(gates.X, [0])
        assert rho.measure(0, np.random.default_rng(0)) == 1
        assert abs(rho.expectation_z(0) + 1.0) < 1e-9
