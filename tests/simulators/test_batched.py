"""Unit tests for the lane-stacked batched simulator.

The contract under test is *bitwise* identity: a lane extracted from a
:class:`BatchedState` must hold the same sparse terms, in the same
order, with amplitudes equal as IEEE-754 bit patterns, as a serial
:class:`SparseState` evolved through the identical gate and fault
sequence.  Everything downstream (verdict streams, checkpoints, SPRT
decisions) leans on that guarantee, so these tests use
``np.array_equal`` — never ``allclose``.
"""

import numpy as np
import pytest

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.circuits.pauli import PauliString
from repro.exceptions import SimulationError
from repro.simulators.batched import (
    BatchedState,
    apply_circuit_with_fault_patterns,
    evaluate_fault_patterns_batched,
)
from repro.simulators.sparse import SparseState
from repro.ft import build_n_gadget, sparse_coset_state
from repro.ft.gadget import apply_circuit_with_faults
from repro.verify import generate


def _entangling_circuit(num_qubits: int = 4) -> Circuit:
    circuit = Circuit(num_qubits)
    circuit.add_gate(gates.H, 0)
    for q in range(num_qubits - 1):
        circuit.add_gate(gates.CNOT, q, q + 1)
    circuit.add_gate(gates.S, 1 % num_qubits)
    circuit.add_gate(gates.T, 2 % num_qubits)
    circuit.add_gate(gates.H, 3 % num_qubits)
    return circuit


def _assert_bit_identical(lane: SparseState, serial: SparseState):
    assert np.array_equal(lane._indices, serial._indices)
    assert np.array_equal(lane._amplitudes, serial._amplitudes)


class TestBatchedState:
    @pytest.mark.parametrize("batch", [1, 2, 3, 7, 64])
    def test_lanes_bit_identical_after_circuit(self, batch):
        circuit = _entangling_circuit()
        serial = SparseState(4)
        serial.apply_circuit(circuit)
        stacked = BatchedState(SparseState(4), batch)
        stacked.apply_circuit(circuit)
        for lane in range(batch):
            _assert_bit_identical(stacked.extract_lane(lane), serial)

    def test_lanes_bit_identical_from_nontrivial_initial(self, steane):
        initial = sparse_coset_state(steane, 0)
        circuit = _entangling_circuit(initial.num_qubits)
        serial = initial.copy()
        serial.apply_circuit(circuit)
        stacked = BatchedState(initial, 5)
        stacked.apply_circuit(circuit)
        for lane in range(5):
            _assert_bit_identical(stacked.extract_lane(lane), serial)

    def test_pauli_lanes_touch_only_selected_lanes(self):
        circuit = _entangling_circuit()
        stacked = BatchedState(SparseState(4), 6)
        stacked.apply_circuit(circuit)
        fault = PauliString.from_label("XYZI")
        stacked.apply_pauli_lanes(fault, [1, 4])

        clean = SparseState(4)
        clean.apply_circuit(circuit)
        struck = clean.copy()
        struck.apply_pauli(fault)
        for lane in range(6):
            expected = struck if lane in (1, 4) else clean
            _assert_bit_identical(stacked.extract_lane(lane), expected)

    def test_repeated_faults_accumulate_per_lane(self):
        stacked = BatchedState(SparseState(2), 3)
        stacked.apply_gate(gates.H, [0])
        fault = PauliString.from_label("ZI")
        stacked.apply_pauli_lanes(fault, [2])
        stacked.apply_pauli_lanes(fault, [1, 2])

        base = SparseState(2)
        base.apply_gate(gates.H, [0])
        once = base.copy()
        once.apply_pauli(fault)
        twice = once.copy()
        twice.apply_pauli(fault)
        _assert_bit_identical(stacked.extract_lane(0), base)
        _assert_bit_identical(stacked.extract_lane(1), once)
        _assert_bit_identical(stacked.extract_lane(2), twice)

    def test_empty_lane_selection_is_a_no_op(self):
        stacked = BatchedState(SparseState(3), 4)
        stacked.apply_gate(gates.H, [1])
        before = stacked._state._amplitudes.copy()
        stacked.apply_pauli_lanes(PauliString.from_label("XXX"), [])
        assert np.array_equal(stacked._state._amplitudes, before)

    def test_gate_cannot_address_lane_bits(self):
        stacked = BatchedState(SparseState(3), 4)
        with pytest.raises(SimulationError, match="out of range"):
            stacked.apply_gate(gates.X, [3])

    def test_lane_bounds_are_checked(self):
        stacked = BatchedState(SparseState(2), 4)
        with pytest.raises(SimulationError, match="lane 4"):
            stacked.apply_pauli_lanes(PauliString.from_label("XI"), [4])
        with pytest.raises(SimulationError, match="lane 7"):
            stacked.extract_lane(7)

    def test_rejects_measurement_and_oversized_circuits(self):
        stacked = BatchedState(SparseState(2), 2)
        wide = Circuit(3)
        wide.add_gate(gates.H, 2)
        with pytest.raises(SimulationError, match="spans 3"):
            stacked.apply_circuit(wide)
        measured = Circuit(2, 1)
        measured.add_gate(gates.H, 0)
        measured.measure(0, 0)
        with pytest.raises(SimulationError, match="unitary"):
            stacked.apply_circuit(measured)

    def test_invalid_batch_rejected(self):
        with pytest.raises(SimulationError, match=">= 1"):
            BatchedState(SparseState(2), 0)

    def test_oversized_stack_hits_width_cap(self):
        # 190 data qubits + 3 lane bits exceeds the 192-qubit sparse
        # cap; the engine's fallback ladder relies on this raising.
        with pytest.raises(SimulationError):
            BatchedState(SparseState(190), 8)

    def test_every_lane_round_trips_initial_state(self):
        initial = SparseState(3)
        initial.apply_gate(gates.H, [0])
        initial.apply_gate(gates.CNOT, [0, 2])
        stacked = BatchedState(initial, 3)
        for lane in range(3):
            lane_state = stacked.extract_lane(lane)
            _assert_bit_identical(lane_state, initial)

    @pytest.mark.parametrize("family", ["clifford", "clifford_t"])
    def test_fuzzed_circuits_stay_bit_identical(self, family):
        for seed in range(8):
            circuit = generate(family, seed, max_qubits=5, max_gates=25)
            serial = SparseState(circuit.num_qubits)
            serial.apply_circuit(circuit)
            stacked = BatchedState(SparseState(circuit.num_qubits), 7)
            stacked.apply_circuit(circuit)
            for lane in range(7):
                _assert_bit_identical(stacked.extract_lane(lane),
                                      serial)


class TestFaultPatternInjection:
    def _patterns(self, num_qubits):
        x0 = (PauliString.single(num_qubits, 0, "X"), -1)
        z1 = (PauliString.single(num_qubits, 1, "Z"), 0)
        y2 = (PauliString.single(num_qubits, 2, "Y"), 2)
        return [
            (),
            (x0,),
            (z1, y2),
            (x0, z1, y2),
        ]

    def test_matches_serial_fault_injection(self):
        circuit = _entangling_circuit()
        patterns = self._patterns(4)
        stacked = BatchedState(SparseState(4), len(patterns))
        apply_circuit_with_fault_patterns(stacked, circuit, patterns)
        for lane, pattern in enumerate(patterns):
            serial = SparseState(4)
            apply_circuit_with_faults(serial, circuit, list(pattern))
            _assert_bit_identical(stacked.extract_lane(lane), serial)

    def test_pattern_count_must_match_batch(self):
        stacked = BatchedState(SparseState(4), 3)
        with pytest.raises(SimulationError, match="2 patterns"):
            apply_circuit_with_fault_patterns(
                stacked, _entangling_circuit(), self._patterns(4)[:2])

    def test_duplicate_faults_in_one_pattern_survive(self):
        # Two identical Z faults at the same point must both land
        # (they cancel up to phase; the *operation count* is the test).
        circuit = Circuit(1)
        circuit.add_gate(gates.H, 0)
        fault = (PauliString.single(1, 0, "Z"), 0)
        stacked = BatchedState(SparseState(1), 2)
        apply_circuit_with_fault_patterns(
            stacked, circuit, [(fault,), (fault, fault)])
        serial_two = SparseState(1)
        apply_circuit_with_faults(serial_two, circuit, [fault, fault])
        _assert_bit_identical(stacked.extract_lane(1), serial_two)

    def test_evaluate_empty_batch_returns_empty(self, trivial):
        gadget = build_n_gadget(trivial)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(trivial, 0)})
        assert evaluate_fault_patterns_batched(
            gadget, initial, lambda s: True, []) == []

    def test_evaluate_invariant_runs_per_lane(self, trivial):
        gadget = build_n_gadget(trivial)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(trivial, 0)})
        seen = []
        verdicts = evaluate_fault_patterns_batched(
            gadget, initial, lambda s: True,
            [(), ()], invariant=lambda s: seen.append(s.num_qubits))
        assert verdicts == [True, True]
        assert len(seen) == 2
