"""Tests for Pauli fault propagation through circuits."""

import pytest

from repro.circuits import Circuit, PauliString, gates
from repro.exceptions import AnalysisError
from repro.simulators import PauliPropagator, StateVector, run_unitary


def clifford_circuit() -> Circuit:
    circuit = Circuit(3)
    circuit.add_gate(gates.H, 0)
    circuit.add_gate(gates.CNOT, 0, 1)
    circuit.add_gate(gates.S, 1)
    circuit.add_gate(gates.CNOT, 1, 2)
    circuit.add_gate(gates.CZ, 0, 2)
    return circuit


class TestCliffordPropagation:
    def test_propagation_matches_state_simulation(self):
        """Injected fault == propagated fault applied at the end."""
        circuit = clifford_circuit()
        propagator = PauliPropagator(circuit)
        for label in ("XII", "IZI", "IIY", "ZZI"):
            for after_op in range(-1, len(circuit)):
                fault = PauliString.from_label(label)
                result = propagator.propagate(fault, after_op)
                # Path A: run with the fault injected mid-circuit.
                state_a = StateVector(3)
                if after_op == -1:
                    state_a.apply_pauli(fault)
                for index, op in enumerate(circuit.operations):
                    state_a.apply_gate(op.gate, op.qubits)
                    if index == after_op:
                        state_a.apply_pauli(fault)
                # Path B: clean run, then the propagated Pauli.
                state_b = run_unitary(circuit)
                state_b.apply_pauli(result.pauli)
                assert state_a.fidelity(state_b) > 1 - 1e-9

    def test_fanout_spreads_x(self):
        circuit = Circuit(4)
        for target in (1, 2, 3):
            circuit.add_gate(gates.CNOT, 0, target)
        propagator = PauliPropagator(circuit)
        result = propagator.propagate(PauliString.single(4, 0, "X"), -1)
        assert result.pauli.label() == "XXXX"

    def test_parity_collects_z(self):
        """Phase error on the parity target hits every source —
        the paper's Sec. 3 warning about many-to-one CNOTs."""
        circuit = Circuit(4)
        for source in (0, 1, 2):
            circuit.add_gate(gates.CNOT, source, 3)
        propagator = PauliPropagator(circuit)
        result = propagator.propagate(PauliString.single(4, 3, "Z"), -1)
        assert result.pauli.label() == "ZZZZ"

    def test_fault_after_last_op_unchanged(self):
        circuit = clifford_circuit()
        propagator = PauliPropagator(circuit)
        fault = PauliString.from_label("YII")
        result = propagator.propagate(fault, len(circuit) - 1)
        assert result.pauli.label() == "YII"


class TestWildBehaviour:
    def test_non_clifford_marks_wild(self):
        circuit = Circuit(1)
        circuit.add_gate(gates.T, 0)
        propagator = PauliPropagator(circuit)
        result = propagator.propagate(PauliString.from_label("X"), -1)
        assert result.wild_qubits == frozenset({0})
        assert result.pauli.is_identity

    def test_wild_is_contagious(self):
        circuit = Circuit(2)
        circuit.add_gate(gates.T, 0)
        circuit.add_gate(gates.CNOT, 0, 1)
        propagator = PauliPropagator(circuit)
        result = propagator.propagate(PauliString.from_label("XI"), -1)
        assert result.wild_qubits == frozenset({0, 1})

    def test_diagonal_fault_passes_t(self):
        circuit = Circuit(1)
        circuit.add_gate(gates.T, 0)
        propagator = PauliPropagator(circuit)
        result = propagator.propagate(PauliString.from_label("Z"), -1)
        assert result.pauli.label() == "Z"
        assert not result.wild_qubits

    def test_strict_mode_raises(self):
        circuit = Circuit(1)
        circuit.add_gate(gates.T, 0)
        propagator = PauliPropagator(circuit, strict=True)
        with pytest.raises(AnalysisError):
            propagator.propagate(PauliString.from_label("X"), -1)

    def test_supports_include_wild(self):
        circuit = Circuit(1)
        circuit.add_gate(gates.T, 0)
        result = PauliPropagator(circuit).propagate(
            PauliString.from_label("Y"), -1
        )
        assert result.x_support() == {0}
        assert result.z_support() == {0}


class TestMultiFault:
    def test_combined_faults_multiply(self):
        propagator = PauliPropagator(clifford_circuit())
        fault = propagator.propagate(PauliString.single(3, 1, "X"), 0)
        assert fault.combine(fault).pauli.is_identity
        # Simultaneous faults propagate as their product.
        x0 = propagator.propagate(PauliString.from_label("XII"), -1)
        z2 = propagator.propagate(PauliString.from_label("IIZ"), -1)
        both = propagator.propagate(PauliString.from_label("XIZ"), -1)
        assert x0.combine(z2).pauli.strip_phase() == \
            both.pauli.strip_phase()

    def test_trivial_flag(self):
        circuit = Circuit(2)
        circuit.add_gate(gates.T, 0)
        propagator = PauliPropagator(circuit)
        wild = propagator.propagate(PauliString.from_label("XI"), -1)
        clean = propagator.propagate(PauliString.from_label("IX"), -1)
        assert wild.wild_qubits == {0} and not clean.wild_qubits
        combined = clean.combine(wild)
        assert combined.wild_qubits == {0}
        assert combined.x_support() == {0, 1}


class TestValidation:
    def test_rejects_measurements(self):
        circuit = Circuit(1, 1).measure(0, 0)
        with pytest.raises(AnalysisError):
            PauliPropagator(circuit)

    def test_fault_size_checked(self):
        propagator = PauliPropagator(clifford_circuit())
        with pytest.raises(AnalysisError):
            propagator.propagate(PauliString.from_label("X"), -1)
