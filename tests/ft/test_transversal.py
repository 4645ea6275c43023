"""Tests for the transversal logical gate layer."""

import pytest

from repro.circuits import Circuit, gates
from repro.exceptions import FaultToleranceError
from repro.ft import transversal
from repro.simulators import SparseState


def encode(code, alpha, beta):
    return code.encode_amplitudes(alpha, beta)


class TestSingleBlockLogicals:
    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    def test_logical_x(self, fixture, request):
        code = request.getfixturevalue(fixture)
        state = code.logical_zero()
        state.apply_circuit(transversal.logical_x_circuit(code))
        assert state.fidelity(code.logical_one()) > 1 - 1e-10

    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    def test_logical_z(self, fixture, request):
        code = request.getfixturevalue(fixture)
        state = encode(code, 1, 1)
        state.apply_circuit(transversal.logical_z_circuit(code))
        assert state.fidelity(encode(code, 1, -1)) > 1 - 1e-10

    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    def test_logical_h(self, fixture, request):
        code = request.getfixturevalue(fixture)
        state = code.logical_zero()
        state.apply_circuit(transversal.logical_h_circuit(code))
        assert state.fidelity(code.logical_plus()) > 1 - 1e-10

    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    def test_logical_s(self, fixture, request):
        """The paper's Sec. 3 note: bitwise sigma_z^{1/2} needs a
        code-dependent fix-up; logical_s_circuit applies it."""
        code = request.getfixturevalue(fixture)
        state = encode(code, 1, 1)
        state.apply_circuit(transversal.logical_s_circuit(code))
        assert state.fidelity(encode(code, 1, 1j)) > 1 - 1e-10

    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    def test_logical_s_dagger(self, fixture, request):
        # The inverse of the fixed-up S circuit is a logical S^dagger.
        code = request.getfixturevalue(fixture)
        state = encode(code, 1, 1)
        state.apply_circuit(transversal.logical_s_circuit(code).inverse())
        assert state.fidelity(encode(code, 1, -1j)) > 1 - 1e-10

    def test_bitwise_s_phase_values(self, steane, trivial):
        assert transversal.bitwise_s_phase(steane) == -1j
        assert transversal.bitwise_s_phase(trivial) == 1j

    def test_coset_weights(self, steane):
        assert transversal.coset_weights_mod4(steane) == (0, 3)

    def test_controlled_s_gate_choice(self, steane, trivial):
        assert transversal.controlled_s_physical_gate(steane) \
            is gates.CS_DG
        assert transversal.controlled_s_physical_gate(trivial) \
            is gates.CS
        assert transversal.controlled_s_dagger_physical_gate(steane) \
            is gates.CS


class TestTwoBlockLogicals:
    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    @pytest.mark.parametrize("control,target", [(0, 0), (0, 1),
                                                (1, 0), (1, 1)])
    def test_logical_cnot_basis(self, fixture, control, target, request):
        code = request.getfixturevalue(fixture)
        state = SparseState.from_dense(code.logical_zero() if control == 0
                                       else code.logical_one())
        second = SparseState.from_dense(code.logical_zero() if target == 0
                                        else code.logical_one())
        joined = state.tensor(second)
        joined.apply_circuit(transversal.logical_cnot_circuit(code))
        expected_target = target ^ control
        expected = SparseState.from_dense(
            code.logical_zero() if control == 0 else code.logical_one()
        ).tensor(SparseState.from_dense(
            code.logical_zero() if expected_target == 0
            else code.logical_one()
        ))
        assert joined.fidelity(expected) > 1 - 1e-10

    @pytest.mark.parametrize("fixture", ["steane", "trivial"])
    def test_logical_cz_phase(self, fixture, request):
        code = request.getfixturevalue(fixture)
        one = SparseState.from_dense(code.logical_one())
        joined = one.tensor(one.copy())
        reference = joined.copy()
        joined.apply_circuit(transversal.logical_cz_circuit(code))
        # CZ on |1>|1> gives -1 relative phase: same state up to
        # global phase, inner product = -1.
        assert abs(joined.inner(reference) + 1.0) < 1e-9

    def test_logical_cz_trivial_on_zero(self, steane):
        zero = SparseState.from_dense(steane.logical_zero())
        one = SparseState.from_dense(steane.logical_one())
        joined = zero.tensor(one)
        reference = joined.copy()
        joined.apply_circuit(transversal.logical_cz_circuit(steane))
        assert abs(joined.inner(reference) - 1.0) < 1e-9


class TestClassicallyControlled:
    """The paper's classical-ancilla-as-control operations."""

    @pytest.mark.parametrize("control_value", [0, 1])
    def test_controlled_logical_x(self, steane, control_value):
        circuit = Circuit(14)
        transversal.add_controlled_logical_x(
            circuit, steane, list(range(7)), list(range(7, 14))
        )
        control = SparseState.from_basis_state([control_value] * 7)
        data = SparseState.from_dense(steane.logical_zero())
        state = control.tensor(data)
        state.apply_circuit(circuit)
        expected = steane.logical_one() if control_value \
            else steane.logical_zero()
        assert state.block_overlap(
            list(range(7, 14)), SparseState.from_dense(expected)
        ) > 1 - 1e-10

    @pytest.mark.parametrize("control_value", [0, 1])
    def test_controlled_logical_s(self, steane, control_value):
        circuit = Circuit(14)
        transversal.add_controlled_logical_s(
            circuit, steane, list(range(7)), list(range(7, 14))
        )
        control = SparseState.from_basis_state([control_value] * 7)
        data = SparseState.from_dense(steane.encode_amplitudes(1, 1))
        state = control.tensor(data)
        state.apply_circuit(circuit)
        expected = steane.encode_amplitudes(1, 1j) if control_value \
            else steane.encode_amplitudes(1, 1)
        assert state.block_overlap(
            list(range(7, 14)), SparseState.from_dense(expected)
        ) > 1 - 1e-10

    def test_controlled_logical_cnot(self, steane):
        circuit = Circuit(21)
        transversal.add_controlled_logical_cnot(
            circuit, steane, list(range(7)), list(range(7, 14)),
            list(range(14, 21)),
        )
        control = SparseState.from_basis_state([1] * 7)
        state = control.tensor(
            SparseState.from_dense(steane.logical_one())
        ).tensor(SparseState.from_dense(steane.logical_zero()))
        state.apply_circuit(circuit)
        assert state.block_overlap(
            list(range(14, 21)),
            SparseState.from_dense(steane.logical_one()),
        ) > 1 - 1e-10

    def test_controlled_logical_cz(self, steane):
        circuit = Circuit(21)
        transversal.add_controlled_logical_cz(
            circuit, steane, list(range(7)), list(range(7, 14)),
            list(range(14, 21)),
        )
        control = SparseState.from_basis_state([1] * 7)
        one = SparseState.from_dense(steane.logical_one())
        state = control.tensor(one).tensor(one.copy())
        reference = state.copy()
        state.apply_circuit(circuit)
        assert abs(state.inner(reference) + 1.0) < 1e-9

    def test_block_overlap_validation(self, steane):
        circuit = Circuit(10)
        with pytest.raises(FaultToleranceError):
            transversal.add_controlled_logical_x(
                circuit, steane, list(range(7)), list(range(3, 10))
            )

    def test_block_size_validation(self, steane):
        circuit = Circuit(10)
        with pytest.raises(FaultToleranceError):
            transversal.add_controlled_logical_x(
                circuit, steane, list(range(3)), list(range(3, 10))
            )
