"""Deep tests of the sparse engine's wide-register (multi-column)
machinery: vectorised shifts, release, keep_only, the ideal-recovery
index masks and the lexsort merge — cross-checked against
narrow-register references and dense simulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import PauliString, gates
from repro.exceptions import SimulationError
from repro.ft import recovered_block_overlap, sparse_logical_state
from repro.simulators import SparseState


def random_narrow_and_wide(seed, narrow_qubits=6, wide_qubits=150):
    """The same random circuit embedded at the top of a narrow and a
    wide register; returns both states plus the embedding offset."""
    rng = np.random.default_rng(seed)
    narrow = SparseState(narrow_qubits)
    wide = SparseState(wide_qubits)
    offset = wide_qubits - narrow_qubits
    pool_1q = [gates.H, gates.X, gates.Z, gates.S, gates.T]
    pool_2q = [gates.CNOT, gates.CZ, gates.CS, gates.SWAP]
    pool_3q = [gates.TOFFOLI, gates.CCZ, gates.FREDKIN]
    for _ in range(40):
        draw = rng.random()
        if draw < 0.5:
            gate = pool_1q[rng.integers(len(pool_1q))]
            qubits = [int(rng.integers(narrow_qubits))]
        elif draw < 0.85:
            gate = pool_2q[rng.integers(len(pool_2q))]
            qubits = [int(q) for q in
                      rng.choice(narrow_qubits, 2, replace=False)]
        else:
            gate = pool_3q[rng.integers(len(pool_3q))]
            qubits = [int(q) for q in
                      rng.choice(narrow_qubits, 3, replace=False)]
        narrow.apply_gate(gate, qubits)
        wide.apply_gate(gate, [offset + q for q in qubits])
    return narrow, wide, offset


class TestWideEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_embedded_circuit_matches(self, seed):
        narrow, wide, offset = random_narrow_and_wide(seed)
        for qubit in range(narrow.num_qubits):
            assert abs(narrow.expectation_z(qubit)
                       - wide.expectation_z(offset + qubit)) < 1e-10

    @given(st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_terms_match_modulo_shift(self, seed):
        narrow, wide, offset = random_narrow_and_wide(
            seed, narrow_qubits=5, wide_qubits=130
        )
        narrow_terms = narrow.terms()
        wide_terms = wide.terms()
        assert len(narrow_terms) == len(wide_terms)
        for index, amplitude in narrow_terms.items():
            assert abs(wide_terms[index] - amplitude) < 1e-10

    def test_cross_column_cnot(self):
        """Control and target in different 64-bit words."""
        state = SparseState(130)
        state.apply_gate(gates.H, [0])       # column 2 bit
        state.apply_gate(gates.CNOT, [0, 129])  # column 0 bit
        terms = state.terms()
        assert set(terms) == {0, (1 << 129) | 1}


class TestWideRegisterOps:
    def test_release_matches_python_reference(self):
        state = SparseState(100)
        state.apply_gate(gates.H, [3])
        state.apply_gate(gates.CNOT, [3, 70])
        state.apply_gate(gates.X, [99])
        reference = {
            (value >> 30 << 29) | (value & ((1 << 29) - 1)): amp
            for value, amp in state.terms().items()
        }
        # Release qubit 70 first requires it be |0>; disentangle it.
        state.apply_gate(gates.CNOT, [3, 70])
        expected_terms = state.terms()
        state.release([70])
        shift = 100 - 1 - 70
        low_mask = (1 << shift) - 1
        rebuilt = {
            ((value >> (shift + 1)) << shift) | (value & low_mask): amp
            for value, amp in expected_terms.items()
        }
        assert set(state.terms()) == set(rebuilt)

    def test_allocate_across_columns(self):
        state = SparseState.from_basis_state([1] * 60)
        new = state.allocate(10)
        assert state.num_qubits == 70
        expected = ((1 << 60) - 1) << 10
        assert set(state.terms()) == {expected}
        state.release(new)
        assert state.num_qubits == 60

    def test_keep_only_reorders(self):
        state = SparseState.from_basis_state([1, 0, 1, 0])
        state.keep_only([2, 0])
        assert state.num_qubits == 2
        assert set(state.terms()) == {0b11}

    def test_keep_only_drops_junk_entanglement(self):
        # Bell pair in junk, |1> in the kept qubit.
        state = SparseState.from_basis_state([1, 0, 0])
        state.apply_gate(gates.H, [1])
        state.apply_gate(gates.CNOT, [1, 2])
        state.keep_only([0])
        assert state.num_qubits == 1
        assert set(state.terms()) == {1}

    def test_keep_only_duplicate_rejected(self):
        with pytest.raises(SimulationError):
            SparseState(3).keep_only([0, 0])

    def test_keep_only_wide(self):
        state = SparseState(120)
        state.apply_gate(gates.X, [100])
        state.apply_gate(gates.H, [5])   # junk superposition
        state.keep_only([100, 119])
        assert state.num_qubits == 2
        assert set(state.terms()) == {0b10}

    def test_x_recovery_masks_on_wide_register(self, steane):
        """Ideal recovery XORs one (syndrome -> index mask) row per
        term; here the block straddles the 64-bit column boundary."""
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        block = list(range(8, 15))
        for label in ("IIIXIII", "IZIIIII", "IIIIIYI"):
            state = SparseState(8).tensor(data).tensor(SparseState(57))
            error = PauliString.from_label("I" * 8 + label + "I" * 57)
            state.apply_pauli(error)
            assert recovered_block_overlap(state, block, steane,
                                           data) > 1 - 1e-9
        state = SparseState(8).tensor(data).tensor(SparseState(57))
        state.apply_pauli(PauliString.from_label(
            "I" * 8 + "XXIIIII" + "I" * 57))
        # Decoded to a logical X: |<0.6 0 + 0.8 1|0.6 1 + 0.8 0>|^2.
        assert recovered_block_overlap(state, block, steane, data) == \
            pytest.approx((2 * 0.6 * 0.8)**2)


class TestWidePauliAndOverlap:
    def test_pauli_on_wide_register(self):
        state = SparseState(90)
        pauli = PauliString.single(90, 80, "Y")
        state.apply_gate(gates.H, [80])
        reference = state.copy()
        state.apply_pauli(pauli)
        state.apply_pauli(pauli)
        assert state.fidelity(reference) > 1 - 1e-12

    def test_block_overlap_across_columns(self):
        block = SparseState(2)
        block.apply_gate(gates.H, [0])
        block.apply_gate(gates.CNOT, [0, 1])
        junk = SparseState(100)
        junk.apply_gate(gates.H, [50])
        state = block.tensor(junk)
        assert abs(state.block_overlap([0, 1], block) - 1.0) < 1e-10

    def test_merge_cancellation_wide(self):
        """Destructive interference across columns merges exactly."""
        state = SparseState(70)
        state.apply_gate(gates.H, [65])
        state.apply_gate(gates.Z, [65])
        state.apply_gate(gates.H, [65])  # = X|0> -> |1>
        assert set(state.terms()) == {1 << 4}
