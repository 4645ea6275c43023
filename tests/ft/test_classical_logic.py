"""Truth-table tests for the reversible classical sub-circuits."""

import itertools

import pytest

from repro.circuits import Circuit
from repro.exceptions import FaultToleranceError
from repro.ft import classical_logic
from repro.simulators import StateVector


def run_on_bits(circuit: Circuit, bits):
    state = StateVector.from_basis_state(list(bits))
    state.apply_circuit(circuit)
    probabilities = state.probabilities()
    index = int(probabilities.argmax())
    assert probabilities[index] > 1 - 1e-10
    return [(index >> (circuit.num_qubits - 1 - q)) & 1
            for q in range(circuit.num_qubits)]


class TestOrInto:
    @pytest.mark.parametrize("num_sources", [1, 2, 3])
    def test_truth_table(self, num_sources):
        # Layout: sources, target, scratch.
        circuit = Circuit(num_sources + 2)
        classical_logic.or_into(circuit, list(range(num_sources)),
                                num_sources, num_sources + 1)
        for bits in itertools.product((0, 1), repeat=num_sources):
            out = run_on_bits(circuit, list(bits) + [0, 0])
            assert out[num_sources] == int(any(bits))
            assert out[num_sources + 1] == 0  # scratch uncomputed

    def test_xor_semantics_on_set_target(self):
        circuit = Circuit(5)
        classical_logic.or_into(circuit, [0, 1, 2], 3, 4)
        out = run_on_bits(circuit, [1, 0, 0, 1, 0])
        assert out[3] == 0  # 1 XOR OR(1,0,0) = 0

    def test_validation(self):
        circuit = Circuit(6)
        with pytest.raises(FaultToleranceError):
            classical_logic.or_into(circuit, [0, 1, 2, 3], 4, 5)
        with pytest.raises(FaultToleranceError):
            classical_logic.or_into(circuit, [0, 1, 2], 3, 0)


class TestMajorityInto:
    def test_single_source_is_copy(self):
        circuit = Circuit(2)
        classical_logic.majority_into(circuit, [0], 1)
        assert run_on_bits(circuit, [1, 0])[1] == 1

    def test_three_source_truth_table(self):
        circuit = Circuit(4)
        classical_logic.majority_into(circuit, [0, 1, 2], 3)
        for bits in itertools.product((0, 1), repeat=3):
            out = run_on_bits(circuit, list(bits) + [0])
            assert out[3] == int(sum(bits) >= 2)

    def test_validation(self):
        circuit = Circuit(6)
        with pytest.raises(FaultToleranceError):
            classical_logic.majority_into(circuit, [0, 1], 2)
        with pytest.raises(FaultToleranceError):
            classical_logic.majority_into(circuit, [0, 1, 2], 2)


class TestBlockOps:
    def test_and_blocks(self):
        circuit = Circuit(6)
        classical_logic.and_blocks_into(circuit, [0, 1], [2, 3], [4, 5])
        out = run_on_bits(circuit, [1, 1, 1, 0, 0, 0])
        assert out[4:] == [1, 0]

    def test_and_blocks_size_checked(self):
        circuit = Circuit(5)
        with pytest.raises(FaultToleranceError):
            classical_logic.and_blocks_into(circuit, [0, 1], [2], [3, 4])
