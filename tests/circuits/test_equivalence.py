"""Tests for equality up to global phase and the dense-unitary helpers
the differential oracle compares backends with."""

import numpy as np
import pytest

from repro.circuits import Circuit, gates
from repro.circuits.equivalence import (
    MAX_DENSE_UNITARY_QUBITS,
    circuit_unitary,
    embed_operator,
    global_phase_between,
    mixed_state_discrepancy,
    operators_equal_up_to_phase,
    state_discrepancy,
)
from repro.exceptions import CircuitError
from repro.simulators import run_unitary

PLUS = np.array([1, 1]) / np.sqrt(2)
MINUS = np.array([1, -1]) / np.sqrt(2)
ZERO = np.array([1, 0])


class TestGlobalPhase:
    def test_phase_recovered(self):
        phase = global_phase_between(1j * gates.H.matrix, gates.H.matrix)
        assert phase == pytest.approx(1j)

    def test_relative_phase_is_not_global(self):
        assert global_phase_between(PLUS, MINUS) is None
        assert global_phase_between(gates.S.matrix, gates.Z.matrix) is None

    def test_shape_mismatch(self):
        assert global_phase_between(np.eye(2), np.eye(4)) is None

    def test_zero_operands(self):
        assert global_phase_between(np.zeros(2), np.zeros(2)) == 1.0
        assert global_phase_between(ZERO, np.zeros(2)) is None

    def test_vector_phase_recovered(self):
        assert global_phase_between(-PLUS, PLUS) == pytest.approx(-1)


class TestDiscrepancies:
    def test_state_discrepancy_is_infidelity(self):
        assert state_discrepancy(1j * PLUS, PLUS) == pytest.approx(0.0)
        assert state_discrepancy(ZERO, PLUS) == pytest.approx(0.5)
        assert state_discrepancy(PLUS, MINUS) == pytest.approx(1.0)
        assert state_discrepancy(ZERO, np.array([1, 0, 0, 0])) == 1.0

    def test_mixed_state_discrepancy(self):
        assert mixed_state_discrepancy(np.outer(PLUS, PLUS), PLUS) == \
            pytest.approx(0.0)
        assert mixed_state_discrepancy(np.eye(2) / 2, ZERO) == \
            pytest.approx(0.5)
        assert mixed_state_discrepancy(np.eye(4) / 4, ZERO) == 1.0

    def test_operators_equal_up_to_phase(self):
        assert operators_equal_up_to_phase(-1j * gates.S.matrix,
                                           gates.S.matrix)
        assert not operators_equal_up_to_phase(gates.S.matrix,
                                               gates.T.matrix)
        assert not operators_equal_up_to_phase(np.eye(2), np.eye(4))


class TestEmbedOperator:
    def test_single_qubit_matches_kron(self):
        embedded = embed_operator(gates.X.matrix, [1], 3)
        expected = np.kron(np.kron(np.eye(2), gates.X.matrix), np.eye(2))
        assert np.allclose(embedded, expected)

    def test_qubit_order_is_respected(self):
        # CNOT controlled by qubit 1 onto qubit 0 = SWAP CNOT SWAP.
        swap = gates.SWAP.matrix
        expected = swap @ gates.CNOT.matrix @ swap
        assert np.allclose(embed_operator(gates.CNOT.matrix, [1, 0], 2),
                           expected)

    @pytest.mark.parametrize("matrix,qubits", [
        (np.eye(4), [0]),      # shape does not match one qubit
        (np.eye(2), [2]),      # out of range
        (np.eye(4), [1, 1]),   # duplicate qubits
    ])
    def test_validation(self, matrix, qubits):
        with pytest.raises(CircuitError):
            embed_operator(matrix, qubits, 2)


class TestCircuitUnitary:
    def test_matches_state_simulation(self):
        circuit = Circuit(3)
        circuit.add_gate(gates.H, 0)
        circuit.add_gate(gates.CNOT, 0, 2)
        circuit.add_gate(gates.T, 1)
        circuit.add_gate(gates.CZ, 2, 1)
        unitary = circuit_unitary(circuit)
        assert np.allclose(unitary @ unitary.conj().T, np.eye(8))
        assert np.allclose(unitary[:, 0], run_unitary(circuit).amplitudes)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_product_of_embedded_gates(self, seed):
        # Random circuits up to 8 qubits, with multi-qubit gates on
        # non-adjacent and reversed qubit orders.
        rng = np.random.default_rng(seed)
        num_qubits = 3 + seed
        pool = [gates.H, gates.S, gates.T_DG, gates.Y, gates.CNOT,
                gates.CS, gates.SWAP, gates.TOFFOLI, gates.FREDKIN]
        circuit = Circuit(num_qubits)
        for _ in range(12):
            gate = pool[rng.integers(len(pool))]
            qubits = rng.choice(num_qubits, size=gate.num_qubits,
                                replace=False)
            circuit.add_gate(gate, *(int(q) for q in qubits))
        reference = np.eye(2**num_qubits, dtype=np.complex128)
        for op in circuit.operations:
            reference = embed_operator(op.gate.matrix, op.qubits,
                                       num_qubits) @ reference
        assert np.allclose(circuit_unitary(circuit), reference,
                           atol=1e-12)

    def test_rejects_measurement(self):
        circuit = Circuit(1, 1).measure(0, 0)
        with pytest.raises(CircuitError):
            circuit_unitary(circuit)

    def test_rejects_oversized_register(self):
        with pytest.raises(CircuitError):
            circuit_unitary(Circuit(MAX_DENSE_UNITARY_QUBITS + 1))
