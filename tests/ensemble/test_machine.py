"""Tests for the ensemble machine model."""

import pytest

from repro.circuits import Circuit, ClassicalCondition, gates
from repro.ensemble import EnsembleMachine
from repro.exceptions import EnsembleViolationError


class TestProgramChecking:
    def test_rejects_measurement(self):
        machine = EnsembleMachine(1)
        circuit = Circuit(1, 1).measure(0, 0)
        with pytest.raises(EnsembleViolationError):
            machine.run(circuit)

    def test_rejects_reset(self):
        machine = EnsembleMachine(1)
        with pytest.raises(EnsembleViolationError):
            machine.run(Circuit(1).reset(0))

    def test_rejects_classical_control(self):
        machine = EnsembleMachine(2)
        circuit = Circuit(2, 1)
        circuit.measure(0, 0)
        circuit.add_gate(gates.X, 1,
                         condition=ClassicalCondition((0,), 1))
        with pytest.raises(EnsembleViolationError):
            machine.run(circuit)

    def test_rejects_oversized_program(self):
        machine = EnsembleMachine(1)
        with pytest.raises(EnsembleViolationError):
            machine.run(Circuit(2))

    def test_accepts_unitary_program(self):
        machine = EnsembleMachine(2, noiseless_readout=True)
        circuit = Circuit(2)
        circuit.add_gate(gates.X, 0)
        run = machine.run(circuit)
        assert abs(run.expectation(0) + 1.0) < 1e-12
        assert abs(run.expectation(1) - 1.0) < 1e-12


class TestReadout:
    def test_expectation_only(self):
        """The ensemble reveals <Z>, never individual outcomes."""
        machine = EnsembleMachine(1, noiseless_readout=True)
        circuit = Circuit(1)
        circuit.add_gate(gates.H, 0)
        run = machine.run(circuit)
        assert abs(run.expectation(0)) < 1e-12
        # The bit is unreadable: the signal sits at the noise centre.
        assert run.infer_bits() == [None]

    def test_sharp_signal_reads_bit(self):
        machine = EnsembleMachine(1, ensemble_size=10**6, seed=0)
        circuit = Circuit(1)
        circuit.add_gate(gates.X, 0)
        run = machine.run(circuit)
        assert run.infer_bits() == [1]

    def test_shot_noise_scales(self):
        small = EnsembleMachine(1, ensemble_size=100, seed=1)
        large = EnsembleMachine(1, ensemble_size=10**8, seed=1)
        circuit = Circuit(1)
        assert small.run(circuit).signals[0].noise_sigma > \
            large.run(circuit).signals[0].noise_sigma * 100


class TestInternalCollapse:
    def test_collapse_without_readout(self):
        """Measurements happen physically; outcomes stay inaccessible.

        A measured |+> collapses to 0 or 1 per computer; the averaged
        signal is ~0 — nothing useful can be read (paper Sec. 2).
        """
        machine = EnsembleMachine(1, ensemble_size=10**6, seed=2)
        circuit = Circuit(1, 1)
        circuit.add_gate(gates.H, 0)
        circuit.measure(0, 0)
        run = machine.run_with_internal_collapse(circuit,
                                                 sample_computers=512)
        assert abs(run.observed(0)) < 0.1
        assert run.state is None

    def test_collapse_of_deterministic_outcome(self):
        machine = EnsembleMachine(1, ensemble_size=10**6, seed=3)
        circuit = Circuit(1, 1)
        circuit.add_gate(gates.X, 0)
        circuit.measure(0, 0)
        run = machine.run_with_internal_collapse(circuit,
                                                 sample_computers=64)
        assert abs(run.observed(0) + 1.0) < 0.05
