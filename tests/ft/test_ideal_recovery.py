"""Tests for the evaluator's perfect decoder."""

import pytest

from repro.circuits import PauliString, gates
from repro.ft import sparse_logical_state
from repro.ft.ideal_recovery import (
    apply_perfect_recovery,
    recovered_block_overlap,
)
from repro.simulators import SparseState


class TestPerfectRecovery:
    @pytest.mark.parametrize("kind", ["X", "Y", "Z"])
    def test_corrects_single_paulis(self, steane, kind):
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        for position in range(7):
            state = data.copy()
            state.apply_pauli(PauliString.single(7, position, kind))
            overlap = recovered_block_overlap(state, list(range(7)),
                                              steane, data)
            assert overlap > 1 - 1e-9

    def test_corrects_arbitrary_single_qubit_error(self, steane):
        """Linearity: any single-qubit unitary error decomposes into
        I/X/Y/Z and each branch is corrected."""
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        state = data.copy()
        state.apply_gate(gates.rz(0.42), [3])  # partial phase error
        overlap = recovered_block_overlap(state, list(range(7)),
                                          steane, data)
        assert overlap > 1 - 1e-9

    def test_corrects_branch_dependent_errors(self, steane):
        """The case that defeats fixed-Pauli comparison: an error on
        the block correlated with an outside qubit."""
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        control = SparseState(1)
        control.apply_gate(gates.H, [0])
        state = control.tensor(data)
        # Error on block qubit 2 (= register qubit 3) only when the
        # control is |1>.
        state.apply_gate(gates.CNOT, [0, 3])
        overlap = recovered_block_overlap(state, list(range(1, 8)),
                                          steane, data)
        assert overlap > 1 - 1e-9

    def test_leaves_logical_errors(self, steane):
        data = sparse_logical_state(steane, {(0,): 1.0})
        state = data.copy()
        state.apply_pauli(steane.logical_x())
        overlap = recovered_block_overlap(state, list(range(7)),
                                          steane, data)
        assert overlap < 1e-6

    def test_weight_two_fails(self, steane):
        data = sparse_logical_state(steane, {(0,): 1.0})
        state = data.copy()
        state.apply_pauli(PauliString.from_label("XXIIIII"))
        overlap = recovered_block_overlap(state, list(range(7)),
                                          steane, data)
        assert overlap < 0.1

    def test_trivial_code_noop(self, trivial):
        data = sparse_logical_state(trivial, {(0,): 0.6, (1,): 0.8})
        state = data.copy()
        apply_perfect_recovery(state, [0], trivial)
        assert state.fidelity(data) > 1 - 1e-12

    def test_block_size_checked(self, steane):
        with pytest.raises(Exception):
            apply_perfect_recovery(SparseState(7), [0, 1], steane)
