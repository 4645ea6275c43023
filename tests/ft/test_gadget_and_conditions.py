"""Tests for the gadget framework and structural FT checks."""

import pytest

from repro.circuits import Circuit, PauliString, gates
from repro.exceptions import FaultToleranceError
from repro.ft.conditions import (
    assert_fault_tolerant_structure,
    check_transversal_structure,
    classical_control_only,
)
from repro.ft.gadget import (
    Gadget,
    RegisterAllocator,
    apply_circuit_with_faults,
)
from repro.simulators import SparseState


class TestRegisterAllocator:
    def test_sequential_allocation(self):
        alloc = RegisterAllocator()
        first = alloc.block("a", 3)
        second = alloc.block("b", 2)
        assert first.qubits == (0, 1, 2)
        assert second.qubits == (3, 4)
        assert alloc.num_qubits == 5

    def test_duplicate_name_rejected(self):
        alloc = RegisterAllocator()
        alloc.block("a", 1)
        with pytest.raises(FaultToleranceError):
            alloc.block("a", 1)


def toy_gadget() -> Gadget:
    alloc = RegisterAllocator()
    data = alloc.block("data", 2, role="data")
    classical = alloc.block("cl", 2, role="classical_ancilla")
    circuit = Circuit(alloc.num_qubits, name="toy")
    circuit.add_gate(gates.H, data.qubits[0])
    circuit.add_gate(gates.CNOT, data.qubits[0], classical.qubits[0])
    circuit.add_gate(gates.CNOT, classical.qubits[0], data.qubits[1])
    return Gadget("toy", circuit, alloc.registers,
                  data_blocks=("data",), output_blocks=("data",))


class TestGadget:
    def test_register_lookup(self):
        gadget = toy_gadget()
        assert gadget.qubits("data") == (0, 1)
        with pytest.raises(FaultToleranceError):
            gadget.register("nope")

    def test_initial_state_defaults_to_zero(self):
        gadget = toy_gadget()
        state = gadget.initial_state({})
        assert state.terms() == {0: 1.0}

    def test_initial_state_with_blocks(self):
        gadget = toy_gadget()
        state = gadget.initial_state(
            {"cl": SparseState.from_basis_state([1, 0])}
        )
        assert state.terms() == {0b0010: 1.0}

    def test_initial_state_size_checked(self):
        gadget = toy_gadget()
        with pytest.raises(FaultToleranceError):
            gadget.initial_state({"cl": SparseState(3)})

    def test_unknown_block_rejected(self):
        gadget = toy_gadget()
        with pytest.raises(FaultToleranceError):
            gadget.initial_state({"mystery": SparseState(1)})

    def test_run_with_fault(self):
        gadget = toy_gadget()
        fault = PauliString.single(4, 0, "X")
        clean = gadget.run()
        faulty = gadget.run(faults=[(fault, -1)])
        assert clean.fidelity(faulty) < 1 - 1e-6

    def test_apply_circuit_with_faults_rejects_measurement(self):
        circuit = Circuit(1, 1).measure(0, 0)
        with pytest.raises(FaultToleranceError):
            apply_circuit_with_faults(SparseState(1), circuit, [])


class TestTransversalityChecker:
    def test_passes_transversal_gadget(self):
        assert_fault_tolerant_structure(toy_gadget())

    def test_catches_intra_block_gate(self):
        alloc = RegisterAllocator()
        data = alloc.block("data", 2, role="data")
        circuit = Circuit(2)
        circuit.add_gate(gates.CNOT, data.qubits[0], data.qubits[1])
        gadget = Gadget("bad", circuit, alloc.registers)
        violations = check_transversal_structure(gadget)
        assert len(violations) == 1
        assert violations[0].block == "data"
        with pytest.raises(FaultToleranceError):
            assert_fault_tolerant_structure(gadget)

    def test_classical_blocks_exempt(self):
        alloc = RegisterAllocator()
        classical = alloc.block("cl", 2, role="classical_ancilla")
        circuit = Circuit(2)
        circuit.add_gate(gates.CNOT, classical.qubits[0],
                         classical.qubits[1])
        gadget = Gadget("ok", circuit, alloc.registers)
        assert check_transversal_structure(gadget) == []


class TestClassicalControlOnly:
    def test_flags_data_to_classical_cnot(self):
        alloc = RegisterAllocator()
        data = alloc.block("data", 1, role="data")
        classical = alloc.block("cl", 1, role="classical_ancilla")
        circuit = Circuit(2)
        circuit.add_gate(gates.CNOT, data.qubits[0], classical.qubits[0])
        gadget = Gadget("g", circuit, alloc.registers)
        assert not classical_control_only(gadget)

    def test_accepts_classical_controls(self):
        alloc = RegisterAllocator()
        classical = alloc.block("cl", 1, role="classical_ancilla")
        data = alloc.block("data", 1, role="data")
        circuit = Circuit(2)
        circuit.add_gate(gates.CNOT, classical.qubits[0], data.qubits[0])
        gadget = Gadget("g", circuit, alloc.registers)
        assert classical_control_only(gadget)
