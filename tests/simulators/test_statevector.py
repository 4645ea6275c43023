"""Tests for the dense state-vector simulator."""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    ClassicalCondition,
    PauliString,
    gates,
)
from repro.exceptions import SimulationError
from repro.simulators import (
    StatevectorSimulator,
    StateVector,
    run_unitary,
)


class TestConstruction:
    def test_default_is_all_zero(self):
        state = StateVector(2)
        assert abs(state.amplitude([0, 0]) - 1.0) < 1e-12

    def test_from_basis_state_big_endian(self):
        state = StateVector.from_basis_state([1, 0])
        assert abs(state.amplitudes[0b10] - 1.0) < 1e-12

    def test_from_amplitudes_normalises(self):
        state = StateVector.from_amplitudes([3.0, 4.0])
        assert abs(abs(state.amplitudes[0]) - 0.6) < 1e-12

    def test_rejects_unnormalised(self):
        with pytest.raises(SimulationError):
            StateVector(1, np.array([1.0, 1.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(SimulationError):
            StateVector.from_amplitudes([1.0, 0.0, 0.0])

    def test_amplitudes_read_only(self):
        state = StateVector(1)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestGateApplication:
    def test_x_flips(self):
        state = StateVector(2)
        state.apply_gate(gates.X, [1])
        assert abs(state.amplitude([0, 1]) - 1.0) < 1e-12

    def test_gate_on_arbitrary_positions_matches_kron(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = StateVector.from_amplitudes(raw)
        state.apply_gate(gates.CNOT, [2, 0])
        # Build the same operator densely: CNOT with control 2, target 0.
        dense = np.zeros((8, 8), dtype=complex)
        for source in range(8):
            bits = [(source >> 2) & 1, (source >> 1) & 1, source & 1]
            if bits[2]:
                bits[0] ^= 1
            target = (bits[0] << 2) | (bits[1] << 1) | bits[2]
            dense[target, source] = 1.0
        expected = dense @ (raw / np.linalg.norm(raw))
        assert np.allclose(state.amplitudes, expected)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(SimulationError):
            StateVector(2).apply_gate(gates.CNOT, [0, 0])

    def test_matrix_shape_checked(self):
        with pytest.raises(SimulationError):
            StateVector(2).apply_matrix(np.eye(2), [0, 1])

    def test_apply_pauli_matches_gates(self):
        pauli = PauliString.from_label("XZY")
        state_a = StateVector(3)
        state_a.apply_gate(gates.H, [0])
        state_b = state_a.copy()
        state_a.apply_pauli(pauli)
        state_b.apply_matrix(pauli.matrix(), [0, 1, 2])
        assert np.allclose(state_a.amplitudes, state_b.amplitudes)

    def test_apply_circuit_with_mapping(self):
        circuit = Circuit(2)
        circuit.add_gate(gates.H, 0)
        circuit.add_gate(gates.CNOT, 0, 1)
        state = StateVector(3)
        state.apply_circuit(circuit, qubits=[2, 0])
        assert abs(state.expectation_pauli(
            PauliString.from_label("XIX")).real - 1.0) < 1e-9


class TestReadout:
    def test_expectation_z(self):
        state = StateVector(1)
        assert abs(state.expectation_z(0) - 1.0) < 1e-12
        state.apply_gate(gates.X, [0])
        assert abs(state.expectation_z(0) + 1.0) < 1e-12
        state.apply_gate(gates.H, [0])
        assert abs(state.expectation_z(0)) < 1e-12

    def test_probability_of_outcome(self):
        state = StateVector(2)
        state.apply_gate(gates.H, [0])
        assert abs(state.probability_of_outcome(0, 1) - 0.5) < 1e-12
        assert abs(state.probability_of_outcome(1, 0) - 1.0) < 1e-12

    def test_expectation_pauli_bell(self):
        state = StateVector(2)
        state.apply_gate(gates.H, [0])
        state.apply_gate(gates.CNOT, [0, 1])
        assert abs(state.expectation_pauli(
            PauliString.from_label("XX")).real - 1.0) < 1e-9
        assert abs(state.expectation_pauli(
            PauliString.from_label("ZZ")).real - 1.0) < 1e-9


class TestMeasurement:
    def test_measurement_statistics(self):
        rng = np.random.default_rng(7)
        outcomes = []
        for _ in range(400):
            state = StateVector(1)
            state.apply_gate(gates.ry(2 * np.arccos(np.sqrt(0.25))), [0])
            outcomes.append(state.measure(0, rng))
        assert abs(np.mean(outcomes) - 0.75) < 0.06

    def test_measurement_collapses(self):
        rng = np.random.default_rng(3)
        state = StateVector(2)
        state.apply_gate(gates.H, [0])
        state.apply_gate(gates.CNOT, [0, 1])
        outcome = state.measure(0, rng)
        assert abs(state.probability_of_outcome(1, outcome) - 1.0) < 1e-9

    def test_project_returns_probability(self):
        state = StateVector(1)
        state.apply_gate(gates.H, [0])
        probability = state.project(0, 1)
        assert abs(probability - 0.5) < 1e-12
        assert abs(state.probability_of_outcome(0, 1) - 1.0) < 1e-12

    def test_project_impossible_outcome(self):
        state = StateVector(1)
        with pytest.raises(SimulationError):
            state.project(0, 1)


class TestRegisterManagement:
    def test_allocate_appends_zeros(self):
        state = StateVector(1)
        state.apply_gate(gates.X, [0])
        new = state.allocate(2)
        assert new == [1, 2]
        assert abs(state.amplitude([1, 0, 0]) - 1.0) < 1e-12

    def test_release_checks_zero(self):
        state = StateVector(2)
        state.apply_gate(gates.X, [1])
        with pytest.raises(SimulationError):
            state.release([1])

    def test_release_round_trip(self):
        state = StateVector(1)
        state.apply_gate(gates.H, [0])
        before = state.amplitudes.copy()
        new = state.allocate(1)
        state.release(new)
        assert np.allclose(state.amplitudes, before)


class TestComparison:
    def test_fidelity_and_equals(self):
        a = StateVector(1)
        b = StateVector(1)
        b.apply_gate(gates.rz(0.3), [0])  # |0> unaffected up to nothing
        assert a.fidelity(b) > 1 - 1e-12
        phased = StateVector.from_amplitudes([1j, 0])
        assert a.equals(phased)
        assert not a.equals(phased, up_to_global_phase=False)


class TestSimulator:
    def test_conditioned_gate_fires_on_match(self):
        circuit = Circuit(2, 1)
        circuit.add_gate(gates.X, 0)
        circuit.measure(0, 0)
        circuit.add_gate(gates.X, 1,
                         condition=ClassicalCondition((0,), 1))
        result = StatevectorSimulator(seed=0).run(circuit)
        assert result.classical_bits == [1]
        assert abs(result.state.amplitude([1, 1]) - 1.0) < 1e-12

    def test_conditioned_gate_skipped_on_mismatch(self):
        circuit = Circuit(2, 1)
        circuit.measure(0, 0)
        circuit.add_gate(gates.X, 1,
                         condition=ClassicalCondition((0,), 1))
        result = StatevectorSimulator(seed=0).run(circuit)
        assert abs(result.state.amplitude([0, 0]) - 1.0) < 1e-12

    def test_reset_produces_zero(self):
        circuit = Circuit(1)
        circuit.add_gate(gates.H, 0)
        circuit.reset(0)
        result = StatevectorSimulator(seed=5).run(circuit)
        assert abs(result.state.probability_of_outcome(0, 0) - 1.0) < 1e-9

    def test_measurements_land_in_named_clbits(self):
        # Each measurement lands in the clbit it names.
        circuit = Circuit(3, 3)
        circuit.add_gate(gates.X, 0)
        circuit.add_gate(gates.X, 2)
        circuit.measure(0, 2)
        circuit.measure(1, 0)
        circuit.measure(2, 1)
        result = StatevectorSimulator(seed=0).run(circuit)
        assert result.classical_bits == [0, 1, 1]

    def test_initial_state_size_checked(self):
        circuit = Circuit(2)
        with pytest.raises(SimulationError):
            StatevectorSimulator().run(circuit,
                                       initial_state=StateVector(1))

    def test_run_unitary_rejects_measurement(self):
        circuit = Circuit(1, 1).measure(0, 0)
        with pytest.raises(SimulationError):
            run_unitary(circuit)
