"""Tests for the reusable circuit fragments."""

import numpy as np
import pytest

from repro.circuits import gates, library
from repro.exceptions import CircuitError
from repro.simulators import StateVector, run_unitary


class TestCatState:
    @pytest.mark.parametrize("size", [1, 2, 3, 5])
    def test_cat_state(self, size):
        state = run_unitary(library.cat_state_circuit(size))
        amplitudes = state.amplitudes
        assert abs(amplitudes[0] - 1 / np.sqrt(2)) < 1e-10
        assert abs(amplitudes[-1] - 1 / np.sqrt(2)) < 1e-10
        assert np.sum(np.abs(amplitudes) > 1e-12) == (2 if size > 1 else 2)

    def test_needs_positive_size(self):
        with pytest.raises(CircuitError):
            library.cat_state_circuit(0)


class TestFanoutAndParity:
    def test_fanout_copies_basis_bit(self):
        circuit = library.fanout_circuit(3)
        state = StateVector.from_basis_state([1, 0, 0, 0])
        state.apply_circuit(circuit)
        assert abs(state.amplitude([1, 1, 1, 1]) - 1.0) < 1e-10

    def test_parity_computes_xor(self):
        circuit = library.parity_circuit(3)
        for bits in ([1, 0, 1], [1, 1, 1], [0, 0, 0]):
            state = StateVector.from_basis_state(bits + [0])
            state.apply_circuit(circuit)
            expected = bits + [sum(bits) % 2]
            assert abs(state.amplitude(expected) - 1.0) < 1e-10

    def test_validation(self):
        with pytest.raises(CircuitError):
            library.fanout_circuit(0)
        with pytest.raises(CircuitError):
            library.parity_circuit(0)


class TestBitwiseHelpers:
    def test_bitwise_circuit(self):
        circuit = library.bitwise_circuit(gates.X, [0, 2], 3)
        state = run_unitary(circuit)
        assert abs(state.amplitude([1, 0, 1]) - 1.0) < 1e-10

    def test_bitwise_rejects_multiqubit_gate(self):
        with pytest.raises(CircuitError):
            library.bitwise_circuit(gates.CNOT, [0], 2)

    def test_transversal_two_qubit(self):
        circuit = library.transversal_two_qubit(
            gates.CNOT, [0, 1], [2, 3], 4
        )
        state = StateVector.from_basis_state([1, 1, 0, 0])
        state.apply_circuit(circuit)
        assert abs(state.amplitude([1, 1, 1, 1]) - 1.0) < 1e-10

    def test_transversal_rejects_overlap(self):
        with pytest.raises(CircuitError):
            library.transversal_two_qubit(gates.CNOT, [0, 1], [1, 2], 3)

    def test_transversal_rejects_size_mismatch(self):
        with pytest.raises(CircuitError):
            library.transversal_two_qubit(gates.CNOT, [0], [1, 2], 3)


class TestVisualize:
    def test_draw_contains_gates(self):
        from repro.circuits import Circuit, draw

        circuit = Circuit(2, 1)
        circuit.add_gate(gates.H, 0)
        circuit.add_gate(gates.CNOT, 0, 1)
        circuit.measure(1, 0)
        text = draw(circuit)
        assert "H" in text
        assert "*" in text
        assert "M[c0]" in text
        assert text.count("\n") == 1

    def test_draw_toffoli(self):
        from repro.circuits import Circuit, draw

        circuit = Circuit(3)
        circuit.add_gate(gates.TOFFOLI, 0, 1, 2)
        text = draw(circuit)
        assert text.count("*") == 2
