"""Tests for measurement-free special-state preparation (Fig. 2)."""

import math

import numpy as np
import pytest

from repro.analysis import run_exhaustive
from repro.exceptions import FaultToleranceError
from repro.ft import (
    and_state_spec,
    build_special_state_gadget,
    sparse_logical_state,
    special_state_input,
    t_state_spec,
)
from repro.ft.ideal_recovery import apply_perfect_recovery
from repro.ft.special_states import combined_state_qubits
from repro.simulators import SparseState


class TestEigenOperatorAlgebra:
    """The Sec. 4.4 / 4.5 eigen-equations, verified numerically."""

    def test_t_state_eigenvectors(self, trivial):
        """U = e^{i pi/4} X S^dg: U|psi0> = |psi0>, U|psi1> = -|psi1>."""
        phase = np.exp(1j * math.pi / 4)
        u = phase * np.array([[0, 1], [1, 0]]) @ np.diag([1, -1j])
        psi0 = np.array([1, phase]) / math.sqrt(2)
        psi1 = np.array([1, -phase]) / math.sqrt(2)
        assert np.allclose(u @ psi0, psi0)
        assert np.allclose(u @ psi1, -psi1)

    def test_and_state_eigenvectors(self):
        """U = CZ (x) Z: U|AND> = |AND>, U|~AND> = -|~AND>."""
        cz = np.diag([1, 1, 1, -1])
        u = np.kron(cz, np.diag([1, -1]))
        and_vec = np.zeros(8)
        for index in (0b000, 0b010, 0b100, 0b111):
            and_vec[index] = 0.5
        flip = np.zeros(8)
        for index in (0b001, 0b011, 0b101, 0b110):
            flip[index] = 0.5
        assert np.allclose(u @ and_vec, and_vec)
        assert np.allclose(u @ flip, -flip)

    def test_inputs_are_equal_superpositions(self):
        """|0> = (|psi0>+|psi1>)/sqrt2 and HHH|000> = (|AND>+|~AND>)/sqrt2."""
        phase = np.exp(1j * math.pi / 4)
        psi0 = np.array([1, phase]) / math.sqrt(2)
        psi1 = np.array([1, -phase]) / math.sqrt(2)
        assert np.allclose((psi0 + psi1) / math.sqrt(2), [1, 0])


class TestPreparation:
    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    @pytest.mark.parametrize("spec_factory", [t_state_spec,
                                              and_state_spec])
    def test_prepares_exact_state(self, fixture, spec_factory, request):
        code = request.getfixturevalue(fixture)
        spec = spec_factory(code)
        gadget = build_special_state_gadget(code, spec)
        out = gadget.run(special_state_input(gadget, code, spec))
        overlap = out.block_overlap(
            combined_state_qubits(gadget, spec),
            spec.expected_state(code),
        )
        assert overlap > 1 - 1e-10

    @pytest.mark.parametrize("spec_factory", [t_state_spec,
                                              and_state_spec])
    def test_parity_modes_equivalent(self, trivial, spec_factory):
        spec = spec_factory(trivial)
        results = []
        for mode in ("ancilla", "hadamard"):
            gadget = build_special_state_gadget(trivial, spec,
                                                parity_mode=mode)
            out = gadget.run(special_state_input(gadget, trivial, spec))
            results.append(out.block_overlap(
                combined_state_qubits(gadget, spec),
                spec.expected_state(trivial),
            ))
        assert all(abs(r - 1.0) < 1e-10 for r in results)

    def test_hadamard_mode_on_steane_t_state(self, steane):
        """The paper-literal Fig. 2 wiring at Steane scale."""
        spec = t_state_spec(steane)
        gadget = build_special_state_gadget(steane, spec,
                                            parity_mode="hadamard")
        out = gadget.run(special_state_input(gadget, steane, spec))
        overlap = out.block_overlap(
            combined_state_qubits(gadget, spec),
            spec.expected_state(steane),
        )
        assert overlap > 1 - 1e-10

    def test_bad_parity_mode(self, trivial):
        with pytest.raises(FaultToleranceError):
            build_special_state_gadget(trivial, t_state_spec(trivial),
                                       parity_mode="psychic")

    def test_wrong_repetition_count(self, steane):
        with pytest.raises(FaultToleranceError):
            build_special_state_gadget(steane, t_state_spec(steane),
                                       repetitions=5)


class TestFaultTolerance:
    """The paper's Sec. 4.3 claim covers errors "in a cat state or in
    the parity bit"; we certify exactly that — and document the
    scheme's genuine blind spot (reproduction finding): errors landing
    on the special-state block *during* the preparation break the
    eigenvector structure of U_bar and are NOT recoverable.  On the
    trivial code this cannot happen (errors keep the state inside
    span{phi_0, phi_1}, and "alpha and beta do not matter"), which is
    precisely why the blind spot is invisible at small scale."""

    def _setup(self, steane):
        spec = t_state_spec(steane)
        gadget = build_special_state_gadget(steane, spec)
        initial = gadget.initial_state(
            special_state_input(gadget, steane, spec)
        )
        expected = spec.expected_state(steane)
        block = combined_state_qubits(gadget, spec)

        def evaluator(state: SparseState) -> bool:
            scratch = state.copy()
            apply_perfect_recovery(scratch, block, steane)
            return scratch.block_overlap(block, expected) > 1 - 1e-7

        return spec, gadget, initial, evaluator, set(block)

    def test_parity_stage_faults_recoverable(self, steane):
        """The paper's stated guarantee — "an error in a cat state or
        in the parity bit" is outvoted — exhaustively certified for
        its actual scope: faults on parity bits, on the parity
        extraction, on the flip stage, and on cat qubits *after* they
        have controlled U."""
        from repro.circuits import GateOp
        from repro.noise import enumerate_locations

        spec, gadget, initial, evaluator, state_qubits = \
            self._setup(steane)
        # Per repetition, the parity stage starts at the H on the
        # parity bit; cat faults before that can corrupt Lambda(U).
        parity_start = {}
        cat_of_rep = {}
        for rep in range(3):
            parity_qubit = gadget.qubits(f"parity_{rep}")[0]
            for index, op in enumerate(gadget.circuit.operations):
                if isinstance(op, GateOp) and op.gate.name == "H" \
                        and op.qubits == (parity_qubit,):
                    parity_start[rep] = index
                    break
            cat_of_rep[rep] = set(gadget.qubits(f"cat_{rep}"))

        def in_scope(location):
            if set(location.qubits) & state_qubits:
                return False
            for rep in range(3):
                if set(location.qubits) & cat_of_rep[rep] \
                        and location.after_op < parity_start[rep]:
                    return False
            return True

        locations = [
            loc for loc in enumerate_locations(
                gadget.circuit, input_qubits=sorted(state_qubits)
            )
            if in_scope(loc)
        ]
        assert len(locations) > 30  # the scope is not vacuous
        failures = run_exhaustive(
            gadget, initial, evaluator, locations=locations
        ).failures
        assert failures == [], (
            f"{len(failures)} parity-stage faults break t-state prep; "
            f"first: {failures[0]}"
        )

    def test_unverified_cat_faults_are_malignant(self, steane):
        """Reproduction finding: an X error during cat preparation
        creates a domain wall, and the bitwise Lambda(U) then applies
        a multi-qubit fragment of U to the state block — not
        recoverable.  Shor's original scheme *verifies* cat states
        before use (with measurements); Fig. 2 presupposes that
        without providing a measurement-free substitute."""
        from repro.circuits import PauliString
        from repro.ft.gadget import apply_circuit_with_faults

        spec, gadget, initial, evaluator, _ = self._setup(steane)
        # X on the middle of cat_0 right after the second chain CNOT.
        cat = gadget.qubits("cat_0")
        state = initial.copy()
        fault = PauliString.single(gadget.num_qubits, cat[2], "X")
        apply_circuit_with_faults(state, gadget.circuit, [(fault, 2)])
        assert not evaluator(state)

    def test_state_block_faults_are_malignant(self, steane):
        """Reproduction finding: a single X error on the state block
        before the repetitions is NOT recoverable — the Fig. 2 scheme
        needs verified inputs, a gap the paper does not close."""
        from repro.circuits import PauliString
        from repro.ft.gadget import apply_circuit_with_faults

        spec, gadget, initial, evaluator, _ = self._setup(steane)
        state = initial.copy()
        fault = PauliString.single(gadget.num_qubits,
                                   gadget.qubits("state_0")[0], "X")
        apply_circuit_with_faults(state, gadget.circuit, [(fault, -1)])
        assert not evaluator(state)

    def test_late_state_block_faults_are_benign(self, steane):
        """After the last parity extraction the state block only meets
        diagonal flip controls, so late errors stay correctable."""
        from repro.circuits import PauliString
        from repro.ft.gadget import apply_circuit_with_faults

        spec, gadget, initial, evaluator, _ = self._setup(steane)
        last_op = len(gadget.circuit) - 1
        for kind in ("X", "Z"):
            state = initial.copy()
            fault = PauliString.single(gadget.num_qubits,
                                       gadget.qubits("state_0")[1], kind)
            apply_circuit_with_faults(state, gadget.circuit,
                                      [(fault, last_op)])
            assert evaluator(state)

    def test_structure(self, steane):
        from repro.ft.conditions import assert_fault_tolerant_structure

        for spec_factory in (t_state_spec, and_state_spec):
            spec = spec_factory(steane)
            gadget = build_special_state_gadget(steane, spec)
            assert_fault_tolerant_structure(gadget)
            assert gadget.circuit.is_ensemble_safe()


class TestSparseLogicalState:
    def test_requires_components(self, steane):
        with pytest.raises(FaultToleranceError):
            sparse_logical_state(steane, {})

    def test_multi_block_state(self, steane):
        state = sparse_logical_state(
            steane, {(0, 1): 1.0, (1, 0): 1.0}
        )
        assert state.num_qubits == 14
        assert state.num_terms == 128
