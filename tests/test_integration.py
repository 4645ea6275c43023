"""End-to-end integration tests across the whole stack.

These exercise the paper's bottom line: a *universal*, measurement-free
set of logical operations — transversal Cliffords plus the Fig. 3 /
Fig. 4 non-Clifford gadgets — runnable on an ensemble machine, with
errors kept correctable by the Sec. 5 recovery.
"""

import itertools
import math

import pytest

from repro.circuits import gates
from repro.ensemble import EnsembleMachine
from repro.ft import (
    build_n_gadget,
    build_recovery_gadget,
    build_special_state_gadget,
    build_t_gadget,
    build_toffoli_gadget,
    expected_t_output,
    sparse_coset_state,
    sparse_logical_state,
    t_gadget_inputs,
    t_state_spec,
    special_state_input,
)
from repro.ft.special_states import combined_state_qubits
from repro.ft import transversal
from repro.simulators import SparseState


class TestUniversalSetOnTrivialCode:
    """Logical circuits combining every gadget, checked exactly
    against dense references at trivial-code scale."""

    def test_h_t_h_sequence(self, trivial):
        """H T H on |0>: a circuit needing the non-Clifford gadget."""
        state = sparse_logical_state(trivial, {(0,): 1.0})
        state.apply_circuit(transversal.logical_h_circuit(trivial))
        gadget = build_t_gadget(trivial)
        out = gadget.run(t_gadget_inputs(gadget, trivial,
                                         state))
        # Reference: T H |0> = (|0> + e^{i pi/4}|1>)/sqrt2.
        phase = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        expected = sparse_logical_state(
            trivial, {(0,): 1.0, (1,): phase}
        )
        assert out.block_overlap(gadget.qubits("data"), expected) \
            > 1 - 1e-9

    def test_toffoli_builds_and_gate(self, trivial):
        """Toffoli as an AND gate with the result on the C block."""
        from repro.ft import run_toffoli_gadget, \
            expected_toffoli_output

        gadget = build_toffoli_gadget(trivial)
        for x, y in itertools.product((0, 1), repeat=2):
            out = run_toffoli_gadget(
                gadget, trivial,
                sparse_coset_state(trivial, x),
                sparse_coset_state(trivial, y),
                sparse_coset_state(trivial, 0),
            )
            expected = expected_toffoli_output(trivial,
                                               {(x, y, 0): 1.0})
            blocks = (gadget.qubits("and_a") + gadget.qubits("and_b")
                      + gadget.qubits("and_c"))
            assert out.block_overlap(blocks, expected) > 1 - 1e-9


class TestEnsembleExecution:
    """Every gadget circuit is a legal ensemble program."""

    @pytest.mark.parametrize("builder", [
        lambda code: build_n_gadget(code).circuit,
        lambda code: build_t_gadget(code).circuit,
        lambda code: build_recovery_gadget(code, "X").circuit,
        lambda code: build_special_state_gadget(
            code, t_state_spec(code)).circuit,
    ])
    def test_gadgets_run_on_ensemble_machine(self, steane, builder):
        circuit = builder(steane)
        machine = EnsembleMachine(circuit.num_qubits,
                                  noiseless_readout=True)
        machine.run(circuit)  # must not raise

    def test_toffoli_circuit_is_ensemble_safe(self, steane):
        assert build_toffoli_gadget(steane).circuit.is_ensemble_safe()

    def test_ensemble_readout_of_gadget_output(self, steane):
        """Run N on |1>_L on the ensemble machine and read the
        classical ancilla from expectation values alone."""
        gadget = build_n_gadget(steane)
        machine = EnsembleMachine(gadget.num_qubits,
                                  ensemble_size=10**6, seed=0)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(steane, 1)}
        )
        run = machine.run(gadget.circuit, initial_state=initial)
        bits = [run.signals[q].infer_bit()
                for q in gadget.qubits("classical")]
        assert bits == [1] * 7


class TestPipelineWithRecovery:
    def test_t_then_recovery(self, steane):
        """T gadget followed by Sec. 5 recovery: an injected error
        before the pipeline is corrected by its end."""
        from repro.circuits import PauliString
        from repro.ft.gadget import apply_circuit_with_faults

        alpha, beta = 0.6, 0.8
        data = sparse_logical_state(steane, {(0,): alpha, (1,): beta})
        data.apply_pauli(PauliString.single(7, 5, "X"))
        gadget = build_t_gadget(steane)
        state = gadget.initial_state(
            t_gadget_inputs(gadget, steane, data)
        )
        apply_circuit_with_faults(state, gadget.circuit, [])
        # Chain the recovery gadgets onto the data block.
        for error_type in ("X", "Z"):
            recovery = build_recovery_gadget(steane, error_type)
            extra = state.allocate(recovery.num_qubits - 7)
            mapping = list(gadget.qubits("data")) + extra
            ancilla = [mapping[q] for q in recovery.qubits("ancilla")]
            if error_type == "X":
                state.apply_circuit(steane.encoding_circuit(),
                                    qubits=ancilla)
                state.apply_circuit(
                    transversal.logical_h_circuit(steane),
                    qubits=ancilla,
                )
            else:
                state.apply_circuit(steane.encoding_circuit(),
                                    qubits=ancilla)
            state.apply_circuit(recovery.circuit, qubits=mapping)
        expected = expected_t_output(steane, alpha, beta)
        assert state.block_overlap(list(gadget.qubits("data")),
                                   expected) > 1 - 1e-9

    def test_prep_then_consume(self, steane):
        """Special-state prep feeding the T gadget end to end."""
        spec = t_state_spec(steane)
        prep = build_special_state_gadget(steane, spec)
        prep_out = prep.run(special_state_input(prep, steane, spec))
        # Extract the psi block (disentangled in the ideal run).
        psi_qubits = combined_state_qubits(prep, spec)
        psi = _extract_block(prep_out, psi_qubits)
        gadget = build_t_gadget(steane)
        data = sparse_logical_state(steane, {(0,): 0.8, (1,): -0.6})
        out = gadget.run({"data": data, "psi": psi})
        expected = expected_t_output(steane, 0.8, -0.6)
        assert out.block_overlap(gadget.qubits("data"), expected) \
            > 1 - 1e-9


def _extract_block(state: SparseState, block):
    scratch = state.copy()
    junk = [q for q in range(state.num_qubits) if q not in set(block)]
    for qubit in sorted(junk, reverse=True):
        outcome = int(scratch.probability_of_outcome(qubit, 1) > 0.5)
        scratch.project(qubit, outcome)
        if outcome:
            scratch.apply_gate(gates.X, [qubit])
        scratch.release([qubit])
    return scratch
