"""Tests for the noise model and the fault-injection engines."""

import numpy as np
import pytest

from repro.analysis.engine import run_exhaustive, run_monte_carlo
from repro.circuits import Circuit, PauliString, gates
from repro.exceptions import FaultToleranceError, SimulationError
from repro.ft.gadget import Gadget, Register, apply_circuit_with_faults
from repro.noise import NoiseModel, enumerate_locations
from repro.simulators import StateVector
from repro.simulators.sparse import SparseState


def simple_circuit() -> Circuit:
    circuit = Circuit(2)
    circuit.add_gate(gates.H, 0)
    circuit.add_gate(gates.CNOT, 0, 1)
    return circuit


class TestNoiseModel:
    def test_uniform(self):
        model = NoiseModel.uniform(0.01)
        assert model.p_gate == model.p_input == model.p_delay == 0.01

    def test_distinct_probabilities(self):
        model = NoiseModel(p_gate=0.1, p_input=0.2, p_delay=0.3)
        locations = enumerate_locations(simple_circuit())
        probabilities = {loc.kind: model.probability_for(loc)
                         for loc in locations}
        assert probabilities["gate"] == 0.1
        assert probabilities["input"] == 0.2

    def test_validation(self):
        with pytest.raises(SimulationError):
            NoiseModel(p_gate=1.5)
        with pytest.raises(SimulationError):
            NoiseModel(p_gate=0.1, channel="gremlins")

    def test_channel_restrictions(self):
        model = NoiseModel.uniform(1.0, channel="bit_flip")
        circuit = simple_circuit()
        location = enumerate_locations(circuit, include_inputs=False,
                                       include_delays=False)[1]
        labels = {f.restricted(location.qubits).label()
                  for f in model.fault_choices(location, 2)}
        assert labels == {"XI", "IX", "XX"}

    def test_phase_flip_channel(self):
        model = NoiseModel.uniform(1.0, channel="phase_flip")
        circuit = simple_circuit()
        location = enumerate_locations(circuit, include_inputs=False,
                                       include_delays=False)[0]
        labels = {f.label() for f in model.fault_choices(location, 2)}
        assert labels == {"ZI"}

    def test_sampling_rate(self):
        model = NoiseModel.uniform(0.3)
        circuit = simple_circuit()
        locations = enumerate_locations(circuit)
        rng = np.random.default_rng(0)
        counts = [len(model.sample_faults(circuit, rng, locations))
                  for _ in range(2000)]
        expected = 0.3 * len(locations)
        assert abs(np.mean(counts) - expected) < 0.1

    def test_expected_fault_count(self):
        model = NoiseModel.uniform(0.1)
        circuit = simple_circuit()
        locations = enumerate_locations(circuit)
        assert abs(model.expected_fault_count(circuit)
                   - 0.1 * len(locations)) < 1e-12


def run_with_faults(circuit: Circuit, faults) -> StateVector:
    """The circuit on |0...0> of a dense state, with ``faults``."""
    state = StateVector(circuit.num_qubits)
    apply_circuit_with_faults(state, circuit, faults)
    return state


class TestRunWithFaults:
    def test_fault_before_circuit(self):
        circuit = simple_circuit()
        fault = PauliString.single(2, 0, "X")
        state = run_with_faults(circuit, [(fault, -1)])
        # X before H|0> gives |->; CNOT leaves |-> (x) |0>... compute:
        reference = StateVector(2)
        reference.apply_gate(gates.X, [0])
        reference.apply_gate(gates.H, [0])
        reference.apply_gate(gates.CNOT, [0, 1])
        assert state.fidelity(reference) > 1 - 1e-10

    def test_fault_mid_circuit(self):
        circuit = simple_circuit()
        fault = PauliString.single(2, 1, "X")
        state = run_with_faults(circuit, [(fault, 0)])
        reference = StateVector(2)
        reference.apply_gate(gates.H, [0])
        reference.apply_gate(gates.X, [1])
        reference.apply_gate(gates.CNOT, [0, 1])
        assert state.fidelity(reference) > 1 - 1e-10

    def test_multiple_faults_compose(self):
        circuit = simple_circuit()
        fault = PauliString.single(2, 0, "Z")
        state = run_with_faults(circuit, [(fault, 0), (fault, 0)])
        clean = run_with_faults(circuit, [])
        assert state.fidelity(clean) > 1 - 1e-10

    def test_rejects_measurement(self):
        circuit = Circuit(1, 1).measure(0, 0)
        with pytest.raises(FaultToleranceError):
            run_with_faults(circuit, [])


def data_gadget(circuit: Circuit) -> Gadget:
    """The circuit as a gadget whose qubits are all one data block, so
    its default fault space is every input, gate and delay location."""
    register = Register("data", tuple(range(circuit.num_qubits)),
                        role="data")
    return Gadget(name="bare", circuit=circuit,
                  registers={"data": register})


def identity_gadget() -> Gadget:
    circuit = Circuit(1)
    circuit.add_gate(gates.I, 0)
    return data_gadget(circuit)


class TestMonteCarlo:
    def test_unprotected_circuit_fails_linearly(self):
        """A bare qubit's failure rate tracks p — the paper's contrast
        to the O(p^2) of protected gadgets."""
        gadget = identity_gadget()
        clean = SparseState(1)

        def evaluator(state: SparseState) -> bool:
            return state.fidelity(clean) > 0.99

        result = run_monte_carlo(gadget, SparseState(1), evaluator,
                                 NoiseModel.uniform(0.1), trials=3000,
                                 seed=0)
        # 2 locations (input + gate); Z faults keep |0> but X/Y break.
        assert 0.05 < result.failure_rate < 0.25

    def test_histogram_recorded(self):
        gadget = data_gadget(simple_circuit())
        result = run_monte_carlo(gadget, SparseState(2), lambda s: True,
                                 NoiseModel.uniform(0.05), trials=500,
                                 seed=1)
        assert sum(result.fault_count_histogram.values()) == 500
        assert result.failures == 0

    def test_stderr(self):
        result = run_monte_carlo(identity_gadget(), SparseState(1),
                                 lambda s: False, NoiseModel.uniform(0.5),
                                 trials=100, seed=2)
        # 95% Wilson half-width within 1.96 standard errors of 0.06.
        interval = result.interval()
        assert (interval.upper - interval.lower) / 2 < 1.96 * 0.06


class TestExhaustiveSingleFaults:
    def test_unprotected_identity_has_failures(self):
        clean = SparseState(1)
        survey = run_exhaustive(
            identity_gadget(), SparseState(1),
            evaluator=lambda s: s.fidelity(clean) > 0.99,
        )
        labels = {pauli.label() for _, pauli in survey.failures}
        assert labels == {"X", "Y"}

    def test_phase_insensitive_evaluator(self):
        survey = run_exhaustive(
            identity_gadget(), SparseState(1),
            evaluator=lambda s: s.probability_of_outcome(0, 0) > 0.99,
            channel="phase_flip",
        )
        assert survey.failures == []
        assert survey.checked == 2
