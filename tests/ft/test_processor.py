"""Tests for the measurement-free logical processor."""

import math

import numpy as np
import pytest

from repro.exceptions import FaultToleranceError
from repro.ft import LogicalProcessor, sparse_logical_state


def dense_reference(gate_sequence, num_qubits):
    """Apply named gates to a dense unencoded register."""
    state = np.zeros(2**num_qubits, dtype=complex)
    state[0] = 1.0
    matrices = {
        "H": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
        "X": np.array([[0, 1], [1, 0]]),
        "Z": np.diag([1, -1]),
        "S": np.diag([1, 1j]),
        "T": np.diag([1, np.exp(1j * math.pi / 4)]),
    }

    def apply_1q(matrix, qubit):
        nonlocal state
        tensor = state.reshape((2,) * num_qubits)
        tensor = np.tensordot(matrix, tensor, axes=([1], [qubit]))
        order = [qubit] + [q for q in range(num_qubits) if q != qubit]
        state = np.transpose(tensor, np.argsort(order)).reshape(-1)

    def apply_cnot(control, target):
        nonlocal state
        tensor = state.reshape((2,) * num_qubits).copy()
        slicer_c1 = [slice(None)] * num_qubits
        slicer_c1[control] = 1
        block = tensor[tuple(slicer_c1)]
        tensor[tuple(slicer_c1)] = np.flip(
            block, axis=target - (1 if target > control else 0)
        )
        state = tensor.reshape(-1)

    def apply_toffoli(a, b, c):
        nonlocal state
        for basis in range(2**num_qubits):
            pass
        matrix = np.eye(2**num_qubits, dtype=complex)
        for basis in range(2**num_qubits):
            bits = [(basis >> (num_qubits - 1 - q)) & 1
                    for q in range(num_qubits)]
            if bits[a] and bits[b]:
                flipped = bits.copy()
                flipped[c] ^= 1
                target = 0
                for bit in flipped:
                    target = (target << 1) | bit
                matrix[basis, basis] = 0
                matrix[target, basis] = 1
        state = matrix.T @ state  # permutation: columns map inputs

    for name, qubits in gate_sequence:
        if name in matrices:
            apply_1q(matrices[name], qubits[0])
        elif name == "CNOT":
            apply_cnot(*qubits)
        elif name == "TOFFOLI":
            apply_toffoli(*qubits)
        else:
            raise ValueError(name)
    return state


def run_program(processor, program):
    for name, qubits in program:
        if name == "H":
            processor.apply_h(qubits[0])
        elif name == "X":
            processor.apply_x(qubits[0])
        elif name == "Z":
            processor.apply_z(qubits[0])
        elif name == "S":
            processor.apply_s(qubits[0])
        elif name == "T":
            processor.apply_t(qubits[0])
        elif name == "CNOT":
            processor.apply_cnot(*qubits)
        elif name == "TOFFOLI":
            processor.apply_toffoli(*qubits)
        else:
            raise ValueError(name)


PROGRAMS = [
    [("H", (0,)), ("T", (0,)), ("H", (0,))],
    [("H", (0,)), ("CNOT", (0, 1)), ("Z", (1,))],
    [("X", (0,)), ("X", (1,)), ("TOFFOLI", (0, 1, 2))],
    [("H", (0,)), ("T", (0,)), ("T", (0,)), ("S", (0,)),
     ("H", (0,))],
    [("H", (0,)), ("TOFFOLI", (0, 1, 2)), ("CNOT", (0, 2))],
]


class TestTrivialCodePrograms:
    @pytest.mark.parametrize("program", PROGRAMS)
    def test_matches_dense_reference(self, trivial, program):
        num_qubits = 3
        processor = LogicalProcessor(trivial, num_qubits)
        for qubit in range(num_qubits):
            processor.prepare_zero(qubit)
        run_program(processor, program)
        reference = dense_reference(program, num_qubits)
        measured = processor.ensemble_readout()
        tensor = np.abs(reference.reshape((2,) * num_qubits)) ** 2
        for qubit in range(num_qubits):
            marginal = tensor.sum(
                axis=tuple(q for q in range(num_qubits) if q != qubit)
            )
            expected = float(marginal[0] - marginal[1])
            assert abs(measured[qubit] - expected) < 1e-9, program


class TestSteanePrograms:
    def test_t_gate_phases(self, steane):
        processor = LogicalProcessor(steane, 1)
        processor.prepare_zero(0)
        processor.apply_h(0)
        processor.apply_t(0)
        expected = sparse_logical_state(
            steane,
            {(0,): 1 / math.sqrt(2),
             (1,): np.exp(1j * math.pi / 4) / math.sqrt(2)},
        )
        assert processor.block_state(0, expected) > 1 - 1e-9

    def test_two_ts_equal_s(self, steane):
        via_t = LogicalProcessor(steane, 1)
        via_t.prepare_zero(0)
        via_t.apply_h(0)
        via_t.apply_t(0)
        via_t.apply_t(0)
        via_s = LogicalProcessor(steane, 1)
        via_s.prepare_zero(0)
        via_s.apply_h(0)
        via_s.apply_s(0)
        expected = sparse_logical_state(
            steane, {(0,): 1 / math.sqrt(2), (1,): 1j / math.sqrt(2)}
        )
        assert via_t.block_state(0, expected) > 1 - 1e-9
        assert via_s.block_state(0, expected) > 1 - 1e-9

    def test_bell_pair_correlations(self, steane):
        processor = LogicalProcessor(steane, 2)
        processor.prepare_zero(0)
        processor.prepare_zero(1)
        processor.apply_h(0)
        processor.apply_cnot(0, 1)
        readout = processor.ensemble_readout()
        assert abs(readout[0]) < 1e-9
        assert abs(readout[1]) < 1e-9
        # ZZ correlation through the logical operators.
        zz = steane.logical_z().embedded(
            processor.state.num_qubits, list(processor.block(0))
        ) * steane.logical_z().embedded(
            processor.state.num_qubits, list(processor.block(1))
        )
        assert abs(processor.state.expectation_pauli(zz).real
                   - 1.0) < 1e-9

    @pytest.mark.veryslow
    def test_steane_toffoli_program(self, steane):
        processor = LogicalProcessor(steane, 3)
        for qubit in range(3):
            processor.prepare_zero(qubit)
        processor.apply_x(0)
        processor.apply_x(1)
        processor.apply_toffoli(0, 1, 2)
        readout = processor.ensemble_readout()
        assert all(abs(v + 1.0) < 1e-9 for v in readout)

    def test_recover_preserves_state(self, steane):
        processor = LogicalProcessor(steane, 1)
        processor.prepare_zero(0)
        processor.apply_h(0)
        processor.apply_s(0)
        expected = sparse_logical_state(
            steane, {(0,): 1 / math.sqrt(2), (1,): 1j / math.sqrt(2)}
        )
        processor.recover(0)
        assert processor.block_state(0, expected) > 1 - 1e-9

    def test_recover_fixes_injected_error(self, steane):
        from repro.circuits import PauliString

        processor = LogicalProcessor(steane, 1)
        processor.prepare_zero(0)
        processor.apply_h(0)
        error = PauliString.single(
            processor.state.num_qubits, processor.block(0)[3], "Y"
        )
        processor.state.apply_pauli(error)
        processor.recover(0)
        expected = sparse_logical_state(
            steane,
            {(0,): 1 / math.sqrt(2), (1,): 1 / math.sqrt(2)},
        )
        assert processor.block_state(0, expected) > 1 - 1e-9


class TestHousekeeping:
    def test_gc_reclaims_junk(self, trivial):
        processor = LogicalProcessor(trivial, 1, auto_gc=False)
        processor.prepare_zero(0)
        processor.apply_t(0)
        before = processor.state.num_qubits
        reclaimed = processor.collect_garbage()
        assert reclaimed > 0
        assert processor.state.num_qubits == before - reclaimed

    def test_gate_log(self, trivial):
        processor = LogicalProcessor(trivial, 1)
        processor.prepare_zero(0)
        processor.apply_h(0)
        processor.apply_t(0)
        assert processor.gate_log[-1] == "T q0"

    def test_bounds_checked(self, trivial):
        processor = LogicalProcessor(trivial, 1)
        with pytest.raises(FaultToleranceError):
            processor.apply_h(3)
        with pytest.raises(FaultToleranceError):
            LogicalProcessor(trivial, 0)
