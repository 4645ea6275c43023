"""Unit tests for the circuit IR."""

import numpy as np
import pytest

from repro.circuits import (
    Circuit,
    ClassicalCondition,
    GateOp,
    MeasureOp,
    ResetOp,
    gates,
)
from repro.exceptions import CircuitError
from repro.simulators import run_unitary


def bell() -> Circuit:
    circuit = Circuit(2)
    circuit.add_gate(gates.H, 0)
    circuit.add_gate(gates.CNOT, 0, 1)
    return circuit


class TestConstruction:
    def test_negative_register(self):
        with pytest.raises(CircuitError):
            Circuit(-1)

    def test_qubit_bounds_checked(self):
        circuit = Circuit(2)
        with pytest.raises(CircuitError):
            circuit.add_gate(gates.X, 2)

    def test_clbit_bounds_checked(self):
        circuit = Circuit(2, 1)
        with pytest.raises(CircuitError):
            circuit.measure(0, 3)

    def test_arity_mismatch(self):
        with pytest.raises(CircuitError):
            Circuit(2).add_gate(gates.CNOT, 0)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(2).add_gate(gates.CNOT, 1, 1)

    def test_chaining(self):
        circuit = Circuit(1).add_gate(gates.H, 0).add_gate(gates.X, 0)
        assert len(circuit) == 2

    def test_iteration_and_gate_ops(self):
        circuit = Circuit(1, 1)
        circuit.add_gate(gates.H, 0)
        circuit.measure(0, 0)
        assert len(list(circuit)) == 2
        assert sum(isinstance(op, GateOp) for op in circuit) == 1


class TestClassicalCondition:
    def test_validation(self):
        with pytest.raises(CircuitError):
            ClassicalCondition((), 0)
        with pytest.raises(CircuitError):
            ClassicalCondition((0,), 2)

    def test_is_satisfied_little_endian(self):
        condition = ClassicalCondition((0, 1), 0b10)
        assert condition.is_satisfied([0, 1])
        assert not condition.is_satisfied([1, 0])

    def test_condition_bits_bounds_checked(self):
        circuit = Circuit(1, 1)
        with pytest.raises(CircuitError):
            circuit.add_gate(
                gates.X, 0, condition=ClassicalCondition((5,), 1)
            )


class TestPredicates:
    def test_unitary_circuit_is_ensemble_safe(self):
        assert bell().is_ensemble_safe()

    def test_measurement_breaks_safety(self):
        circuit = Circuit(1, 1).measure(0, 0)
        assert circuit.has_measurements
        assert not circuit.is_ensemble_safe()

    def test_reset_breaks_safety(self):
        circuit = Circuit(1).reset(0)
        assert circuit.has_measurements

    def test_classical_control_breaks_safety(self):
        circuit = Circuit(2, 1)
        circuit.measure(0, 0)
        circuit.add_gate(gates.X, 1,
                         condition=ClassicalCondition((0,), 1))
        assert circuit.has_classical_control
        assert not circuit.is_ensemble_safe()

    def test_count_gates(self):
        circuit = bell()
        circuit.add_gate(gates.CNOT, 1, 0)
        counts = circuit.count_gates()
        assert counts == {"H": 1, "CNOT": 2}


class TestComposition:
    def test_compose_remaps_qubits(self):
        host = Circuit(4)
        host.compose(bell(), qubits=[2, 3])
        ops = host.operations
        assert ops[0].qubits == (2,)
        assert ops[1].qubits == (2, 3)

    def test_compose_size_checked(self):
        with pytest.raises(CircuitError):
            Circuit(4).compose(bell(), qubits=[0])

    def test_extend_offsets(self):
        host = Circuit(4)
        host.extend(bell(), qubit_offset=1)
        assert host.operations[1].qubits == (1, 2)

    def test_concat(self):
        joined = bell().copy().extend(bell())
        assert len(joined) == 4
        assert joined.num_qubits == 2
        # Running the joined circuit = running each part in turn.
        expected = run_unitary(bell())
        expected.apply_circuit(bell())
        assert np.allclose(run_unitary(joined).amplitudes,
                           expected.amplitudes)

    def test_remapped(self):
        circuit = bell().remapped({0: 1, 1: 0}, num_qubits=2)
        assert circuit.operations[1].qubits == (1, 0)


class TestInverse:
    def test_inverse_undoes(self):
        circuit = Circuit(2)
        circuit.add_gate(gates.H, 0)
        circuit.add_gate(gates.T, 1)
        circuit.add_gate(gates.CNOT, 0, 1)
        round_trip = circuit.copy().extend(circuit.inverse())
        state = run_unitary(round_trip)
        assert abs(state.amplitudes[0] - 1.0) < 1e-10

    def test_inverse_rejects_measurements(self):
        circuit = Circuit(1, 1).measure(0, 0)
        with pytest.raises(CircuitError):
            circuit.inverse()


class TestScheduling:
    def test_parallel_gates_share_moment(self):
        circuit = Circuit(4)
        circuit.add_gate(gates.H, 0)
        circuit.add_gate(gates.H, 1)
        circuit.add_gate(gates.CNOT, 0, 1)
        circuit.add_gate(gates.H, 2)
        moments = circuit.moments()
        assert len(moments[0]) == 3  # H0, H1, H2 all at moment 0
        assert len(moments[1]) == 1

    def test_depth(self):
        assert bell().depth() == 2

    def test_idle_locations(self):
        # q0 acts at moments 0 and 2, idle at moment 1.
        circuit = Circuit(2)
        circuit.add_gate(gates.H, 0)
        circuit.add_gate(gates.H, 1)
        circuit.add_gate(gates.X, 1)
        circuit.add_gate(gates.CNOT, 0, 1)
        idle = circuit.idle_locations()
        assert (1, 0) in idle

    def test_untouched_qubit_never_idle(self):
        circuit = Circuit(3)
        circuit.add_gate(gates.H, 0)
        circuit.add_gate(gates.X, 0)
        idle = circuit.idle_locations()
        assert all(qubit == 0 for _, qubit in idle) or not idle

    def test_conditioned_gate_waits_for_measurement(self):
        circuit = Circuit(2, 1)
        circuit.measure(0, 0)
        circuit.add_gate(gates.X, 1,
                         condition=ClassicalCondition((0,), 1))
        moments = circuit.moments()
        assert isinstance(moments[0][0], MeasureOp)
        assert isinstance(moments[1][0], GateOp)


class TestOperations:
    def test_gateop_remap_with_condition(self):
        op = GateOp(gates.X, (0,),
                    condition=ClassicalCondition((0,), 1))
        remapped = op.remapped({0: 3}, {0: 2})
        assert remapped.qubits == (3,)
        assert remapped.condition.bits == (2,)

    def test_measure_remap(self):
        op = MeasureOp(0, 0)
        remapped = op.remapped({0: 5}, {0: 4})
        assert remapped.qubit == 5 and remapped.clbit == 4

    def test_reset_remap(self):
        assert ResetOp(0).remapped({0: 2}).qubit == 2

    def test_copy_is_independent(self):
        original = bell()
        clone = original.copy()
        clone.add_gate(gates.X, 0)
        assert len(original) == 2
        assert len(clone) == 3
