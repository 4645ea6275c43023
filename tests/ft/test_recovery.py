"""Tests for measurement-free error recovery (paper Sec. 5)."""

import pytest

from repro.circuits import PauliString
from repro.exceptions import FaultToleranceError
from repro.ft import (
    build_recovery_gadget,
    recovery_ancilla_state,
    sparse_logical_state,
)
from repro.ft.gadget import apply_circuit_with_faults


def run_both_passes(code, data_state, error=None):
    """Apply the X pass then the Z pass, chaining the full register."""
    gadget_x = build_recovery_gadget(code, "X")
    state = gadget_x.initial_state({
        "data": data_state,
        "ancilla": recovery_ancilla_state(code, "X"),
    })
    if error is not None:
        state.apply_pauli(
            error.embedded(state.num_qubits,
                           list(gadget_x.qubits("data")))
        )
    apply_circuit_with_faults(state, gadget_x.circuit, [])
    # Chain the Z gadget onto the same register by appending its
    # ancillas and remapping.
    gadget_z = build_recovery_gadget(code, "Z")
    extra = state.allocate(gadget_z.num_qubits - code.n)
    mapping = list(gadget_x.qubits("data")) + extra
    ancilla_qubits = [mapping[q] for q in gadget_z.qubits("ancilla")]
    state.apply_circuit(code.encoding_circuit(), qubits=ancilla_qubits)
    state.apply_circuit(gadget_z.circuit, qubits=mapping)
    return state, list(gadget_x.qubits("data"))


class TestCorrection:
    def test_clean_state_unchanged(self, steane):
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        state, block = run_both_passes(steane, data)
        assert state.block_overlap(block, data) > 1 - 1e-9

    @pytest.mark.parametrize("kind", ["X", "Y", "Z"])
    @pytest.mark.parametrize("position", range(7))
    def test_corrects_every_single_pauli(self, steane, kind, position):
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        error = PauliString.single(7, position, kind)
        state, block = run_both_passes(steane, data, error)
        assert state.block_overlap(block, data) > 1 - 1e-9

    def test_weight_two_same_species_fails(self, steane):
        """d=3: two X errors decode to a logical flip — recovery is
        not magic, matching the code's guarantee."""
        data = sparse_logical_state(steane, {(0,): 1.0})
        error = PauliString.from_label("XXIIIII")
        state, block = run_both_passes(steane, data, error)
        assert state.block_overlap(block, data) < 0.2

    def test_mixed_species_weight_two_corrected(self, steane):
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        error = PauliString.from_label("XIIZIII")
        state, block = run_both_passes(steane, data, error)
        assert state.block_overlap(block, data) > 1 - 1e-9


class TestGadgetProperties:
    def test_registers(self, steane):
        gadget = build_recovery_gadget(steane, "X")
        assert gadget.register("data").size == 7
        assert gadget.register("ancilla").size == 7
        assert gadget.register("indicator_0").size == 1

    def test_error_type_validated(self, steane):
        with pytest.raises(FaultToleranceError):
            build_recovery_gadget(steane, "W")

    def test_ancilla_states(self, steane):
        plus = recovery_ancilla_state(steane, "X")
        zero = recovery_ancilla_state(steane, "Z")
        assert plus.num_terms == 16   # |+>_L: all 16 codewords
        assert zero.num_terms == 8    # |0>_L: the dual coset

    def test_full_recovery_builder(self, steane):
        # A full recovery is the X gadget then the Z gadget.
        gadgets = [build_recovery_gadget(steane, error_type)
                   for error_type in ("X", "Z")]
        assert [g.name for g in gadgets] == [
            "recovery_X[steane]", "recovery_Z[steane]"
        ]

    def test_structure(self, steane):
        from repro.ft.conditions import assert_fault_tolerant_structure

        for error_type in ("X", "Z"):
            gadget = build_recovery_gadget(steane, error_type)
            assert_fault_tolerant_structure(gadget)
            assert gadget.circuit.is_ensemble_safe()


class TestNoMeasurementNeeded:
    def test_recovery_runs_on_ensemble_machine(self, steane):
        """The entire point of Sec. 5: the recovery circuit is a legal
        ensemble program, unlike its measured counterpart."""
        from repro.ensemble import EnsembleMachine

        gadget = build_recovery_gadget(steane, "X")
        machine = EnsembleMachine(gadget.num_qubits,
                                  noiseless_readout=True)
        machine.run(gadget.circuit)  # must not raise

    def test_single_fault_during_recovery_tolerated(self, steane):
        """A fault inside the recovery gadget leaves the data block
        within one correction of the ideal state."""
        from repro.analysis import (
            recovered_overlap_evaluator,
            run_exhaustive,
        )

        gadget = build_recovery_gadget(steane, "X")
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        initial = gadget.initial_state({
            "data": data,
            "ancilla": recovery_ancilla_state(steane, "X"),
        })
        evaluator = recovered_overlap_evaluator(gadget, steane,
                                                ["data"], data)
        failures = run_exhaustive(gadget, initial, evaluator).failures
        assert failures == [], (
            f"{len(failures)} single faults break X recovery; "
            f"first: {failures[0]}"
        )
