"""Tests for the ensemble strategies (paper Sec. 2)."""

import numpy as np
import pytest

from repro.circuits import Circuit, ClassicalCondition, gates
from repro.ensemble import (
    ClassicalEnsemble,
    agreement_fraction,
    delay_measurements,
    randomize_bad_results,
    read_randomized_output,
    sort_results,
)
from repro.exceptions import EnsembleViolationError
from repro.simulators import run_unitary


def measured_teleport_fragment() -> Circuit:
    """measure q0, then X on q1 conditioned on the outcome."""
    circuit = Circuit(2, 1)
    circuit.add_gate(gates.H, 0)
    circuit.measure(0, 0)
    circuit.add_gate(gates.X, 1, condition=ClassicalCondition((0,), 1))
    return circuit


class TestDelayMeasurements:
    def test_produces_ensemble_safe_circuit(self):
        delayed = delay_measurements(measured_teleport_fragment())
        assert delayed.is_ensemble_safe()

    def test_semantics_preserved(self):
        """Delaying must produce the deferred-measurement unitary:
        identical statistics on the non-measured qubits."""
        delayed = delay_measurements(measured_teleport_fragment())
        state = run_unitary(delayed)
        # q1 perfectly correlated with q0 (CNOT of a |+> control).
        from repro.circuits import PauliString

        assert abs(state.expectation_pauli(
            PauliString.from_label("ZZ")).real - 1.0) < 1e-9

    def test_condition_on_zero_value(self):
        circuit = Circuit(2, 1)
        circuit.add_gate(gates.H, 0)
        circuit.measure(0, 0)
        circuit.add_gate(gates.X, 1,
                         condition=ClassicalCondition((0,), 0))
        delayed = delay_measurements(circuit)
        state = run_unitary(delayed)
        from repro.circuits import PauliString

        # Anti-correlated now.
        assert abs(state.expectation_pauli(
            PauliString.from_label("ZZ")).real + 1.0) < 1e-9

    def test_rejects_reset(self):
        circuit = Circuit(1).reset(0)
        with pytest.raises(EnsembleViolationError):
            delay_measurements(circuit)

    def test_rejects_multibit_condition(self):
        circuit = Circuit(3, 2)
        circuit.measure(0, 0)
        circuit.measure(1, 1)
        circuit.add_gate(gates.X, 2,
                         condition=ClassicalCondition((0, 1), 3))
        with pytest.raises(EnsembleViolationError):
            delay_measurements(circuit)

    def test_rejects_condition_before_write(self):
        circuit = Circuit(2, 1)
        circuit.add_gate(gates.X, 1,
                         condition=ClassicalCondition((0,), 1))
        with pytest.raises(EnsembleViolationError):
            delay_measurements(circuit)

    def test_rejects_retouched_control(self):
        circuit = Circuit(2, 1)
        circuit.measure(0, 0)
        circuit.add_gate(gates.H, 0)  # control qubit modified after
        circuit.add_gate(gates.X, 1,
                         condition=ClassicalCondition((0,), 1))
        with pytest.raises(EnsembleViolationError):
            delay_measurements(circuit)


class TestClassicalEnsemble:
    def test_expectations(self):
        ensemble = ClassicalEnsemble(np.array([[0, 1], [0, 0]]))
        assert abs(ensemble.expectation(0) - 1.0) < 1e-12
        assert abs(ensemble.expectation(1)) < 1e-12

    def test_read_bits(self):
        rows = np.zeros((4096, 2), dtype=np.uint8)
        rows[:, 1] = 1
        ensemble = ClassicalEnsemble(rows)
        assert ensemble.read_bits() == [0, 1]

    def test_validation(self):
        with pytest.raises(EnsembleViolationError):
            ClassicalEnsemble(np.zeros((0, 2)))


class TestRandomizeBadResults:
    def test_good_signal_survives(self):
        rng = np.random.default_rng(5)
        rows = np.zeros((8192, 3), dtype=np.uint8)
        # 30% good computers agree on answer 101; the rest hold junk.
        good_mask = rng.random(8192) < 0.3
        rows[good_mask] = [1, 0, 1]
        rows[~good_mask] = rng.integers(0, 2, size=(int((~good_mask).sum()), 3))
        ensemble = ClassicalEnsemble(rows)
        randomized, fraction = randomize_bad_results(
            ensemble,
            is_good=lambda row: bool(np.array_equal(row, [1, 0, 1])),
            output_bits=[0, 1, 2],
            rng=rng,
        )
        # Junk rows match the good answer by chance 1/8 of the time,
        # so the good fraction sits near 0.3 + 0.7/8.
        assert 0.33 < fraction < 0.45
        answer = read_randomized_output(randomized, [0, 1, 2],
                                        good_fraction_floor=0.2)
        assert answer == [1, 0, 1]

    def test_without_randomization_junk_can_mislead(self):
        """Bad computers all holding the same wrong word bias the
        readout — exactly what randomization prevents."""
        rows = np.zeros((4096, 2), dtype=np.uint8)
        rows[:1400] = [1, 1]   # good answer, minority
        rows[1400:] = [0, 1]   # systematic bad candidate, majority
        ensemble = ClassicalEnsemble(rows)
        naive = ensemble.read_bits()
        assert naive[0] == 0  # wrong: the junk majority wins bit 0
        randomized, _ = randomize_bad_results(
            ensemble,
            is_good=lambda row: bool(row[0]),
            output_bits=[0, 1],
            rng=np.random.default_rng(0),
        )
        answer = read_randomized_output(randomized, [0, 1],
                                        good_fraction_floor=0.25)
        assert answer == [1, 1]


class TestSortResults:
    def test_sorting_canonicalises(self):
        samples = np.array([[3, 1, 2], [2, 3, 1], [1, 2, 3]])
        sorted_rows = sort_results(samples)
        assert np.array_equal(sorted_rows,
                              np.tile([1, 2, 3], (3, 1)))

    def test_agreement_fraction(self):
        rows = np.array([[1, 2], [1, 2], [1, 3], [1, 2]])
        assert abs(agreement_fraction(rows) - 0.75) < 1e-12

    def test_unsorted_rows_disagree(self):
        rng = np.random.default_rng(0)
        hits = rng.permuted(
            np.tile([5, 9, 12], (512, 1)), axis=1
        )
        assert agreement_fraction(hits) < 0.5
        assert agreement_fraction(sort_results(hits)) == 1.0
