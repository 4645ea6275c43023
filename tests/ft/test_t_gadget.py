"""Tests for the measurement-free sigma_z^{1/4} gadget (Fig. 3)."""

import math

import pytest

from repro.analysis import (
    recovered_overlap_evaluator,
    run_exhaustive,
)
from repro.ft import (
    build_t_gadget,
    expected_t_output,
    psi0_state,
    sparse_logical_state,
    t_gadget_inputs,
)
from repro.simulators import SparseState

AMPLITUDE_CASES = [
    (1.0, 0.0),
    (0.0, 1.0),
    (1 / math.sqrt(2), 1 / math.sqrt(2)),
    (0.6, 0.8j),
    (0.8, -0.6),
]


class TestLogicalAction:
    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    @pytest.mark.parametrize("alpha,beta", AMPLITUDE_CASES)
    def test_applies_logical_t(self, fixture, alpha, beta, request):
        code = request.getfixturevalue(fixture)
        gadget = build_t_gadget(code)
        data = sparse_logical_state(code, {(0,): alpha, (1,): beta})
        out = gadget.run(t_gadget_inputs(gadget, code, data))
        overlap = gadget.block_overlap(
            out, "data", expected_t_output(code, alpha, beta)
        )
        assert overlap > 1 - 1e-10

    def test_consumed_pair_state(self, trivial):
        """Fig. 3's annotated junk output:
        (|0>_L|0...0> + e^{i pi/4}|1>_L|1...1>)/sqrt2."""
        gadget = build_t_gadget(trivial)
        data = sparse_logical_state(trivial, {(0,): 0.6, (1,): 0.8})
        out = gadget.run(t_gadget_inputs(gadget, trivial, data))
        phase = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        junk = SparseState.from_terms(2, {0b00: 1.0, 0b11: phase})
        qubits = list(gadget.qubits("psi")) + list(
            gadget.qubits("classical")
        )
        assert out.block_overlap(qubits, junk) > 1 - 1e-10

    def test_matches_measured_baseline(self, trivial):
        """The measurement-free gadget equals the measured protocol's
        logical action on every input."""
        from repro.ft.baselines import MeasuredTGate

        for alpha, beta in AMPLITUDE_CASES:
            data = sparse_logical_state(trivial,
                                        {(0,): alpha, (1,): beta})
            gadget = build_t_gadget(trivial)
            out = gadget.run(t_gadget_inputs(gadget, trivial, data))
            expected = expected_t_output(trivial, alpha, beta)
            assert gadget.block_overlap(out, "data", expected) \
                > 1 - 1e-10
            baseline = MeasuredTGate(trivial, seed=3)
            result = baseline.run(data)
            assert result.state.block_overlap([0], expected) > 1 - 1e-10

    def test_t_fourth_power_is_z(self, trivial):
        """Four applications of the gadget = logical Z."""
        data = sparse_logical_state(trivial, {(0,): 0.6, (1,): 0.8})
        current = data
        for _ in range(4):
            gadget = build_t_gadget(trivial)
            out = gadget.run(t_gadget_inputs(gadget, trivial, current))
            # Extract the (disentangled) data block for the next round.
            data_qubits = list(gadget.qubits("data"))
            extracted = _extract(out, data_qubits)
            current = extracted
        expected = sparse_logical_state(trivial,
                                        {(0,): 0.6, (1,): -0.8})
        assert current.fidelity(expected) > 1 - 1e-9

    def test_psi0_state(self, steane):
        state = psi0_state(steane)
        assert state.num_qubits == 7
        assert state.num_terms == 16


def _extract(state, block):
    """Project junk away (valid: ideal runs leave the block pure)."""
    scratch = state.copy()
    junk = [q for q in range(state.num_qubits) if q not in set(block)]
    for qubit in sorted(junk, reverse=True):
        p_one = scratch.probability_of_outcome(qubit, 1)
        outcome = int(p_one > 0.5)
        scratch.project(qubit, outcome)
        if outcome:
            from repro.circuits import gates

            scratch.apply_gate(gates.X, [qubit])
        scratch.release([qubit])
    return scratch


class TestFaultTolerance:
    def test_no_single_fault_is_malignant(self, steane):
        """The Fig. 3 fault-tolerance claim, certified exhaustively
        over every input/gate/delay location and every Pauli."""
        gadget = build_t_gadget(steane)
        alpha, beta = 0.6, 0.8
        data = sparse_logical_state(steane, {(0,): alpha, (1,): beta})
        initial = gadget.initial_state(
            t_gadget_inputs(gadget, steane, data)
        )
        evaluator = recovered_overlap_evaluator(
            gadget, steane, ["data"],
            expected_t_output(steane, alpha, beta),
        )
        failures = run_exhaustive(gadget, initial, evaluator).failures
        assert failures == [], (
            f"{len(failures)} single faults break the T gadget; "
            f"first: {failures[0]}"
        )

    def test_two_faults_can_break_it(self, steane):
        from repro.circuits import PauliString
        from repro.ft.gadget import apply_circuit_with_faults

        gadget = build_t_gadget(steane)
        data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
        initial = gadget.initial_state(
            t_gadget_inputs(gadget, steane, data)
        )
        evaluator = recovered_overlap_evaluator(
            gadget, steane, ["data"], expected_t_output(steane, 0.6, 0.8)
        )
        state = initial.copy()
        fault = PauliString.from_label(
            "XX" + "I" * (gadget.num_qubits - 2)
        )
        apply_circuit_with_faults(state, gadget.circuit, [(fault, -1)])
        assert not evaluator(state)

    def test_structure(self, steane):
        from repro.ft.conditions import (
            assert_fault_tolerant_structure,
            classical_control_only,
        )

        gadget = build_t_gadget(steane)
        assert_fault_tolerant_structure(gadget)
        assert classical_control_only(gadget)
        assert gadget.circuit.is_ensemble_safe()
