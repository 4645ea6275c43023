"""Tests for the N gate (paper Eq. 1 / Fig. 1) — including the
exhaustive single-fault certification of the fault-tolerance claim."""

import numpy as np
import pytest

from repro.analysis import (
    n_gadget_evaluator,
    run_exhaustive,
)
from repro.exceptions import FaultToleranceError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.ft.ngate import (
    NGateBuilder,
    classical_majority_value,
    default_repetitions,
    readout_vector,
)
from repro.simulators import SparseState


def term_bits(state, qubits):
    top = state.num_qubits - 1
    for index in state.iter_ints():
        yield [(index >> (top - q)) & 1 for q in qubits]


class TestConstruction:
    def test_default_repetitions(self, steane, trivial):
        assert default_repetitions(steane) == 3
        assert default_repetitions(trivial) == 1

    def test_readout_vector_validated(self, steane):
        assert np.array_equal(readout_vector(steane), np.ones(7))

    def test_unknown_variant(self, steane):
        with pytest.raises(FaultToleranceError):
            NGateBuilder(steane, variant="hope")

    def test_register_layout(self, steane):
        gadget = build_n_gadget(steane, variant="direct")
        assert gadget.register("quantum").size == 7
        assert gadget.register("classical").size == 7
        assert gadget.register("syndrome_0").size == 3

    def test_voted_layout(self, steane):
        gadget = build_n_gadget(steane, variant="voted")
        assert gadget.register("parity").size == 3
        assert gadget.register("copies_0").size == 7

    def test_majority_value(self):
        assert classical_majority_value([1, 1, 0]) == 1
        with pytest.raises(FaultToleranceError):
            classical_majority_value([1, 0])


class TestLogicalAction:
    """The Eq. 1 truth table, per variant and per code."""

    @pytest.mark.parametrize("variant", ["direct", "voted"])
    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_copies_basis_states(self, variant, fixture, bit, request):
        code = request.getfixturevalue(fixture)
        gadget = build_n_gadget(code, variant=variant)
        out = gadget.run({"quantum": sparse_coset_state(code, bit)})
        for bits in term_bits(out, gadget.qubits("classical")):
            assert bits == [bit] * code.n
        # The quantum block is unchanged.
        assert gadget.block_overlap(out, "quantum",
                                    sparse_coset_state(code, bit)) \
            > 1 - 1e-10

    @pytest.mark.parametrize("variant", ["direct", "voted"])
    def test_superposition_entangles_coherently(self, steane, variant):
        """N on (|0>+|1>)_L/sqrt2 produces the entangled pair of
        Eq. 1 applied linearly — per-term consistency between the
        quantum word's corrected parity and the classical bits."""
        gadget = build_n_gadget(steane, variant=variant)
        plus = SparseState.from_dense(steane.logical_plus())
        out = gadget.run({"quantum": plus})
        hamming = steane.classical_code
        top = out.num_qubits - 1
        quantum = gadget.qubits("quantum")
        classical = gadget.qubits("classical")
        for index in out.iter_ints():
            word = [(index >> (top - q)) & 1 for q in quantum]
            bits = [(index >> (top - q)) & 1 for q in classical]
            assert hamming.corrected_parity(word) == \
                classical_majority_value(bits)
            assert bits == [bits[0]] * 7  # classical side is clean

    def test_preset_classical_block_toggles(self, trivial):
        """Eq. 1's third line: |1>_L (x) |1...1> -> |1>_L (x) |0...0>."""
        gadget = build_n_gadget(trivial)
        out = gadget.run({
            "quantum": sparse_coset_state(trivial, 1),
            "classical": SparseState.from_basis_state([1]),
        })
        for bits in term_bits(out, gadget.qubits("classical")):
            assert bits == [0]


class TestFaultTolerance:
    """The paper's headline property, certified exhaustively."""

    @pytest.mark.parametrize("variant", ["direct", "voted"])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_no_single_fault_is_malignant(self, steane, variant, bit):
        gadget = build_n_gadget(steane, variant=variant)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(steane, bit)}
        )
        evaluator = n_gadget_evaluator(gadget, steane, bit)
        failures = run_exhaustive(gadget, initial, evaluator).failures
        assert failures == [], (
            f"{len(failures)} single faults break the {variant} N "
            f"gadget; first: {failures[0]}"
        )

    def test_two_faults_can_be_malignant(self, steane):
        """Sanity check that the evaluator can fail at all: two bit
        errors on the quantum ancilla input defeat the Hamming
        correction inside N_1 and corrupt every output bit."""
        from repro.circuits import PauliString
        from repro.ft.gadget import apply_circuit_with_faults

        gadget = build_n_gadget(steane, variant="direct")
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(steane, 0)}
        )
        state = initial.copy()
        fault = PauliString.from_label(
            "XX" + "I" * (gadget.num_qubits - 2)
        )
        apply_circuit_with_faults(state, gadget.circuit, [(fault, -1)])
        evaluator = n_gadget_evaluator(gadget, steane, 0)
        assert not evaluator(state)


class TestStructure:
    @pytest.mark.parametrize("variant", ["direct", "voted"])
    def test_transversal_structure(self, steane, variant):
        from repro.ft.conditions import assert_fault_tolerant_structure

        gadget = build_n_gadget(steane, variant=variant)
        assert_fault_tolerant_structure(gadget)

    def test_classical_control_only(self, steane):
        from repro.ft.conditions import classical_control_only

        gadget = build_n_gadget(steane)
        assert classical_control_only(gadget)

    def test_circuit_is_ensemble_safe(self, steane):
        gadget = build_n_gadget(steane)
        assert gadget.circuit.is_ensemble_safe()
