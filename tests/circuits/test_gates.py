"""Unit tests for the gate library."""

import cmath
import math

import numpy as np
import pytest

from repro.circuits import Circuit, PauliString, gates
from repro.circuits.gates import (
    Gate,
    global_phase,
    matrices_equal_up_to_phase,
    rx,
    ry,
    rz,
    sigma_z_power,
)
from repro.exceptions import GateError, VerificationError


class TestGateConstruction:
    def test_rejects_non_unitary(self):
        with pytest.raises(GateError):
            Gate("bad", np.array([[1, 0], [0, 2]]), 1)

    def test_rejects_wrong_shape(self):
        with pytest.raises(GateError):
            Gate("bad", np.eye(4), 1)

    def test_matrix_is_read_only(self):
        with pytest.raises(ValueError):
            gates.X.matrix[0, 0] = 5.0

    def test_dim(self):
        assert gates.X.dim == 2
        assert gates.CNOT.dim == 4
        assert gates.TOFFOLI.dim == 8

    def test_repr_includes_params(self):
        assert "RZ" in repr(rz(0.25))
        assert "0.25" in repr(rz(0.25))


class TestStandardUnitaries:
    @pytest.mark.parametrize("gate,expected", [
        (gates.X, [[0, 1], [1, 0]]),
        (gates.Z, [[1, 0], [0, -1]]),
        (gates.S, [[1, 0], [0, 1j]]),
    ])
    def test_matrices(self, gate, expected):
        assert np.allclose(gate.matrix, np.array(expected))

    def test_hadamard_squares_to_identity(self):
        assert np.allclose(gates.H.matrix @ gates.H.matrix, np.eye(2))

    def test_s_squared_is_z(self):
        assert np.allclose(gates.S.matrix @ gates.S.matrix, gates.Z.matrix)

    def test_t_squared_is_s(self):
        assert np.allclose(gates.T.matrix @ gates.T.matrix, gates.S.matrix)

    def test_hxh_is_z(self):
        h = gates.H.matrix
        assert np.allclose(h @ gates.X.matrix @ h, gates.Z.matrix)

    def test_toffoli_flips_only_when_both_controls_set(self):
        matrix = gates.TOFFOLI.matrix
        for a in (0, 1):
            for b in (0, 1):
                for c in (0, 1):
                    source = (a << 2) | (b << 1) | c
                    target = (a << 2) | (b << 1) | (c ^ (a & b))
                    assert matrix[target, source] == 1.0

    def test_fredkin_swaps_when_control_set(self):
        matrix = gates.FREDKIN.matrix
        assert matrix[0b101, 0b110] == 1.0
        assert matrix[0b110, 0b101] == 1.0
        assert matrix[0b010, 0b010] == 1.0

    def test_ccz_phase(self):
        assert gates.CCZ.matrix[7, 7] == -1.0
        assert gates.CCZ.matrix[6, 6] == 1.0

    def test_y_equals_ixz(self):
        assert np.allclose(gates.Y.matrix,
                           1j * gates.X.matrix @ gates.Z.matrix)


class TestInverses:
    @pytest.mark.parametrize("gate", [
        gates.X, gates.Y, gates.Z, gates.H, gates.S, gates.T,
        gates.CNOT, gates.CZ, gates.CS, gates.SWAP, gates.TOFFOLI,
        gates.CCZ, gates.FREDKIN,
    ])
    def test_inverse_composes_to_identity(self, gate):
        product = gate.matrix @ gate.inverse().matrix
        assert np.allclose(product, np.eye(gate.dim))

    def test_named_inverse_round_trip(self):
        assert gates.S.inverse() is gates.S_DG
        assert gates.S_DG.inverse() is gates.S
        assert gates.T.inverse() is gates.T_DG

    def test_synthesised_inverse_for_parametric(self):
        gate = rz(0.7)
        inverse = gate.inverse()
        assert np.allclose(gate.matrix @ inverse.matrix, np.eye(2))


class TestControlled:
    def test_controlled_x_is_cnot(self):
        assert gates.X.controlled() is gates.CNOT

    def test_controlled_cnot_is_toffoli(self):
        assert gates.CNOT.controlled() is gates.TOFFOLI

    def test_controlled_z_is_cz(self):
        assert gates.Z.controlled() is gates.CZ

    def test_controlled_s_is_cs(self):
        assert gates.S.controlled() is gates.CS

    def test_generic_controlled_structure(self):
        controlled_h = gates.H.controlled()
        assert controlled_h.num_qubits == 2
        matrix = controlled_h.matrix
        assert np.allclose(matrix[:2, :2], np.eye(2))
        assert np.allclose(matrix[2:, 2:], gates.H.matrix)


class TestRegistry:
    def test_lookup(self):
        # A dumped reproducer resolves gate names back to the
        # registered gate objects.
        from repro.verify import dump_circuit, parse_dump

        circuit = Circuit(2).add_gate(gates.H, 0).add_gate(gates.CNOT, 0, 1)
        parsed = parse_dump(dump_circuit(circuit))
        assert [op.gate for op in parsed] == [gates.H, gates.CNOT]
        assert parsed.operations[1].gate is gates.GATE_REGISTRY["CNOT"]

    def test_unknown_name(self):
        from repro.verify import parse_dump

        with pytest.raises(VerificationError):
            parse_dump("circuit demo\nqubits 1\nclbits 0\ngate WARP 0")

    def test_registry_complete(self):
        for name, gate in gates.GATE_REGISTRY.items():
            assert gate.name == name


class TestParametricGates:
    def test_rz_phases(self):
        gate = rz(math.pi / 2)
        assert np.allclose(gate.matrix, gates.S.matrix)

    def test_rz_clifford_flag(self):
        assert rz(math.pi / 2).is_clifford
        assert not rz(math.pi / 4).is_clifford

    def test_rx_at_pi_is_x_up_to_phase(self):
        assert matrices_equal_up_to_phase(rx(math.pi).matrix,
                                          gates.X.matrix)

    def test_ry_at_pi_is_y_up_to_phase(self):
        assert matrices_equal_up_to_phase(ry(math.pi).matrix,
                                          gates.Y.matrix)

    def test_global_phase(self):
        gate = global_phase(math.pi / 4)
        assert np.allclose(gate.matrix,
                           cmath.exp(1j * math.pi / 4) * np.eye(2))

    @pytest.mark.parametrize("exponent,expected", [
        (0.5, gates.S), (0.25, gates.T), (-0.5, gates.S_DG),
        (-0.25, gates.T_DG), (1.0, gates.Z),
    ])
    def test_sigma_z_power_named(self, exponent, expected):
        assert sigma_z_power(exponent) is expected

    def test_sigma_z_power_generic(self):
        gate = sigma_z_power(1.0 / 8.0)
        assert np.allclose(gate.matrix @ gate.matrix, gates.T.matrix)


class TestHelpers:
    def test_kron_all(self):
        # Qubit 0 is the leftmost tensor factor.
        result = PauliString.from_label("XZ").matrix()
        assert np.allclose(result, np.kron(gates.X.matrix, gates.Z.matrix))

    def test_matrices_equal_up_to_phase(self):
        assert matrices_equal_up_to_phase(
            1j * gates.H.matrix, gates.H.matrix
        )
        assert not matrices_equal_up_to_phase(
            gates.H.matrix, gates.X.matrix
        )

    def test_equals_method(self):
        assert gates.S.equals(sigma_z_power(0.5))
        phased = Gate("phased_x", 1j * gates.X.matrix, 1)
        assert phased.equals(gates.X, up_to_global_phase=True)
        assert not phased.equals(gates.X)
