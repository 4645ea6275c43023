"""Tests for the CSS construction, Steane and trivial codes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import PauliString, gates, iter_single_qubit_paulis
from repro.codes import SteaneCode
from repro.codes.quantum import (
    check_commuting_generators,
    in_stabilizer_group,
    syndrome_of,
)
from repro.exceptions import CodeError
from repro.simulators import StateVector, run_unitary


class TestSteaneParameters:
    def test_parameters(self, steane):
        assert (steane.n, steane.k, steane.distance) == (7, 1, 3)
        assert steane.correctable_errors == 1

    def test_stabilizers_commute(self, steane):
        generators = steane.stabilizer_generators()
        assert len(generators) == 6
        for i, a in enumerate(generators):
            for b in generators[i + 1:]:
                assert a.commutes_with(b)

    def test_generator_commutation_checked(self, steane):
        check_commuting_generators(steane.stabilizer_generators())
        with pytest.raises(CodeError):
            check_commuting_generators([PauliString.from_label("XI"),
                                        PauliString.from_label("ZZ")])

    def test_logical_support(self, steane):
        # X̄ = X^u and Z̄ = Z^u anticommute exactly when |u| is odd.
        support = steane.logical_support
        assert int(support.sum()) % 2 == 1
        assert steane.logical_x().support() == \
            tuple(int(q) for q in np.flatnonzero(support))
        assert steane.logical_z().support() == steane.logical_x().support()

    def test_logicals_anticommute(self, steane):
        assert not steane.logical_x().commutes_with(steane.logical_z())

    def test_logicals_commute_with_stabilizers(self, steane):
        for generator in steane.stabilizer_generators():
            assert generator.commutes_with(steane.logical_x())
            assert generator.commutes_with(steane.logical_z())


class TestLogicalStates:
    def test_orthonormal(self, steane):
        zero = steane.logical_zero()
        one = steane.logical_one()
        assert abs(zero.inner(zero) - 1.0) < 1e-12
        assert abs(zero.inner(one)) < 1e-12

    def test_supports_are_cosets(self, steane):
        zero = steane.logical_zero()
        assert np.count_nonzero(zero.amplitudes) == 8

    def test_stabilized(self, steane):
        zero = steane.logical_zero()
        for generator in steane.stabilizer_generators():
            moved = zero.copy()
            moved.apply_pauli(generator)
            assert zero.fidelity(moved) > 1 - 1e-12

    def test_projector_rank(self, steane):
        # prod_g (I + g)/2 projects onto a 2^(7-6) = 2-dimensional code
        # space that holds both logical basis states.
        projector = np.eye(2**7, dtype=np.complex128)
        for generator in steane.stabilizer_generators():
            projector = projector @ ((np.eye(2**7) + generator.matrix())
                                     / 2.0)
        assert abs(np.trace(projector).real - 2.0) < 1e-8
        for state in (steane.logical_zero(), steane.logical_one()):
            assert np.allclose(projector @ state.amplitudes,
                               state.amplitudes)

    def test_logical_x_maps_zero_to_one(self, steane):
        state = steane.logical_zero()
        state.apply_pauli(steane.logical_x())
        assert state.fidelity(steane.logical_one()) > 1 - 1e-12

    def test_logical_z_phases_one(self, steane):
        state = steane.encode_amplitudes(1, 1)
        state.apply_pauli(steane.logical_z())
        expected = steane.encode_amplitudes(1, -1)
        assert state.fidelity(expected) > 1 - 1e-12

    def test_plus_minus(self, steane):
        plus = steane.logical_plus()
        minus = steane.logical_plus()
        minus.apply_pauli(steane.logical_z())
        assert abs(plus.inner(minus)) < 1e-12


class TestEncoder:
    def test_encodes_zero(self, steane):
        out = run_unitary(steane.encoding_circuit(), StateVector(7))
        assert out.fidelity(steane.logical_zero()) > 1 - 1e-10

    @given(st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi))
    @settings(max_examples=20, deadline=None)
    def test_encodes_superpositions(self, magnitude, phase):
        steane = SteaneCode()
        alpha = np.sqrt(magnitude)
        beta = np.sqrt(1 - magnitude) * np.exp(1j * phase)
        circuit = steane.encoding_circuit()
        # Locate the data qubit: the one whose flip maps to |1>_L.
        state = StateVector(7)
        matrix = np.array([[alpha, -np.conj(beta)],
                           [beta, np.conj(alpha)]])
        state.apply_matrix(matrix, [_data_qubit(steane)])
        out = run_unitary(circuit, state)
        expected = steane.encode_amplitudes(alpha, beta)
        assert out.fidelity(expected) > 1 - 1e-9

    def test_trivial_encoder_is_empty(self, trivial):
        assert len(trivial.encoding_circuit()) == 0


def _data_qubit(code) -> int:
    circuit = code.encoding_circuit()
    for qubit in range(code.n):
        state = StateVector(code.n)
        state.apply_gate(gates.X, [qubit])
        out = run_unitary(circuit, state)
        if out.fidelity(code.logical_one()) > 0.99:
            return qubit
    raise AssertionError("no data qubit found")


class TestSyndromesAndCorrection:
    def test_all_single_paulis_correctable(self, steane):
        for error in iter_single_qubit_paulis(7):
            assert steane.is_correctable(error)
            correction = steane.correction_for(error)
            residual = (correction * error).strip_phase()
            assert in_stabilizer_group(residual,
                                       steane.stabilizer_generators())

    def test_syndrome_distinguishes_positions(self, steane):
        seen = set()
        for qubit in range(7):
            error = PauliString.single(7, qubit, "X")
            seen.add(steane.x_error_syndrome(error))
        assert len(seen) == 7

    def test_weight_two_same_species_not_correctable(self, steane):
        error = PauliString.from_label("XXIIIII")
        assert not steane.is_correctable(error)

    def test_mixed_weight_two_correctable(self, steane):
        # One X and one Z on different qubits: independent species.
        error = PauliString.from_label("XIIZIII")
        assert steane.is_correctable(error)

    def test_logical_operator_detection(self, steane):
        # A logical operator is undetectable (commutes with every
        # generator) yet acts on the code space (not a stabilizer).
        generators = steane.stabilizer_generators()
        assert not any(steane.x_error_syndrome(steane.logical_x()))
        assert not any(steane.z_error_syndrome(steane.logical_z()))
        assert not in_stabilizer_group(steane.logical_x(), generators)
        assert in_stabilizer_group(generators[0], generators)

    def test_z_error_syndrome_distinguishes_positions(self, steane):
        syndromes = {
            steane.z_error_syndrome(PauliString.single(7, qubit, "Z"))
            for qubit in range(7)
        }
        assert len(syndromes) == 7
        assert steane.z_error_syndrome(
            PauliString.single(7, 0, "X")) == (0, 0, 0)

    def test_syndrome_of_helper(self, steane):
        error = PauliString.single(7, 2, "X")
        syndrome = syndrome_of(error, steane.z_stabilizer_generators())
        assert any(syndrome)


class TestLogicalReadout:
    @given(st.integers(0, 6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_readout_robust_to_one_flip(self, position, logical):
        steane = SteaneCode()
        base = np.ones(7, dtype=np.uint8) if logical \
            else np.zeros(7, dtype=np.uint8)
        base[position] ^= 1
        assert steane.logical_readout(base) == int(logical)

    def test_logical_expectation(self, steane):
        logical_z = steane.logical_z()
        assert abs(steane.logical_zero().expectation_pauli(logical_z)
                   - 1.0) < 1e-9
        assert abs(steane.logical_one().expectation_pauli(logical_z)
                   + 1.0) < 1e-9
        # Embedded as the second block of a two-block register.
        register = StateVector.from_amplitudes(np.kron(
            steane.logical_zero().amplitudes,
            steane.logical_one().amplitudes))
        embedded = logical_z.embedded(14, range(7, 14))
        assert abs(register.expectation_pauli(embedded) + 1.0) < 1e-9


class TestTrivialCode:
    def test_parameters(self, trivial):
        assert (trivial.n, trivial.k, trivial.distance) == (1, 1, 1)
        assert trivial.correctable_errors == 0

    def test_states_are_physical(self, trivial):
        assert abs(trivial.logical_zero().amplitudes[0] - 1.0) < 1e-12
        assert abs(trivial.logical_one().amplitudes[1] - 1.0) < 1e-12

    def test_no_stabilizers(self, trivial):
        assert trivial.stabilizer_generators() == []


class TestCssValidation:
    def test_rejects_non_dual_containing(self):
        from repro.codes import LinearCode
        from repro.codes.quantum.css import CssCode

        # The [3,2] even-weight... use a code NOT containing its dual:
        # the [3,1] repetition code's dual is the [3,2] parity code,
        # which is larger, so containment fails.
        rep3 = LinearCode(generator=np.array([[1, 1, 1]]))
        with pytest.raises(CodeError):
            CssCode(rep3)

    def test_rejects_wrong_logical_dimension(self):
        from repro.codes import LinearCode
        from repro.codes.quantum.css import CssCode

        # Full space F_2^2 contains its dual {0}, but k = 2 - 0 = 2.
        full = LinearCode(generator=np.eye(2, dtype=np.uint8))
        with pytest.raises(CodeError):
            CssCode(full)
