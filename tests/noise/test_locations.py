"""Tests for fault-location enumeration."""

import numpy as np
import pytest

from repro.analysis.engine import run_exhaustive
from repro.circuits import Circuit, PauliString, gates
from repro.exceptions import AnalysisError
from repro.ft.gadget import Gadget, Register, apply_circuit_with_faults
from repro.noise import (
    CrosstalkModel,
    FaultSpace,
    count_locations,
    enumerate_locations,
)
from repro.simulators import StateVector
from repro.simulators.sparse import SparseState


def staircase() -> Circuit:
    circuit = Circuit(3)
    circuit.add_gate(gates.H, 0)
    circuit.add_gate(gates.CNOT, 0, 1)
    circuit.add_gate(gates.CNOT, 1, 2)
    circuit.add_gate(gates.H, 0)  # q0 idles during CNOT(1,2)? no: ASAP
    return circuit


class TestEnumeration:
    def test_kind_toggles(self):
        circuit = staircase()
        only_gates = enumerate_locations(circuit, include_inputs=False,
                                         include_delays=False)
        assert all(loc.kind == "gate" for loc in only_gates)
        assert len(only_gates) == len(circuit)

    def test_input_restriction(self):
        circuit = staircase()
        locations = enumerate_locations(circuit, include_gates=False,
                                        include_delays=False,
                                        input_qubits=[1])
        assert len(locations) == 1
        assert locations[0].qubits == (1,)
        assert locations[0].after_op == -1

    def test_gate_locations_reference_ops(self):
        circuit = staircase()
        locations = enumerate_locations(circuit, include_inputs=False,
                                        include_delays=False)
        assert locations[1].qubits == (0, 1)
        assert locations[1].after_op == 1

    def test_counts(self):
        circuit = staircase()
        counts = count_locations(circuit)
        assert counts["gate"] == 4
        assert counts["input"] == 3
        assert counts["total"] == sum(
            counts[k] for k in ("gate", "input", "delay")
        )

    def test_measurement_rejected(self):
        circuit = Circuit(1, 1).measure(0, 0)
        with pytest.raises(AnalysisError):
            enumerate_locations(circuit)


class TestDelayAnchoring:
    def test_delay_location_exists_for_idle_qubit(self):
        # q0: busy at moment 0, idle at moment 1, busy at moment 2.
        circuit = Circuit(2)
        circuit.add_gate(gates.X, 0)
        circuit.add_gate(gates.X, 1)
        circuit.add_gate(gates.X, 1)
        circuit.add_gate(gates.CNOT, 0, 1)
        delays = [loc for loc in enumerate_locations(circuit)
                  if loc.kind == "delay"]
        assert any(loc.qubits == (0,) for loc in delays)

    def test_delay_fault_semantics(self):
        """A delay fault must commute correctly into the run: inserting
        it at its anchor equals inserting it 'during' the idle moment."""
        circuit = Circuit(2)
        circuit.add_gate(gates.X, 0)      # op0, moment 0
        circuit.add_gate(gates.H, 1)      # op1, moment 0
        circuit.add_gate(gates.H, 1)      # op2, moment 1 (q0 idle)
        circuit.add_gate(gates.CNOT, 0, 1)  # op3, moment 2
        delays = [loc for loc in enumerate_locations(circuit)
                  if loc.kind == "delay" and loc.qubits == (0,)]
        assert delays
        location = delays[0]
        fault = PauliString.single(2, 0, "X")
        faulty = StateVector(2)
        apply_circuit_with_faults(faulty, circuit,
                                  [(fault, location.after_op)])
        # Reference: X on q0 between op0 and op3 (same moment window).
        reference = StateVector(2)
        reference.apply_gate(gates.X, [0])
        reference.apply_gate(gates.H, [1])
        reference.apply_gate(gates.X, [0])  # the delay fault
        reference.apply_gate(gates.H, [1])
        reference.apply_gate(gates.CNOT, [0, 1])
        assert faulty.fidelity(reference) > 1 - 1e-10

    def test_fault_space_of_two_qubit_location(self):
        circuit = Circuit(2)
        circuit.add_gate(gates.CNOT, 0, 1)
        location = enumerate_locations(circuit, include_inputs=False,
                                       include_delays=False)[0]
        space = FaultSpace.build(circuit, [location])
        (faults,) = space.choices
        assert len(faults) == 15
        assert all(not f.is_identity for f in faults)
        assert list(space.singles()) == [(location, f) for f in faults]
        assert space.after_ops == (0,)
        bit_flip = FaultSpace.build(circuit, [location], "bit_flip")
        assert [f.label() for f in bit_flip.choices[0]] == \
            ["XI", "IX", "XX"]


class TestBurstLocations:
    def test_windows_slide_over_register(self):
        from repro.noise import burst_locations

        circuit = staircase()
        locations = burst_locations(circuit, weight=2)
        assert len(locations) == 2  # windows (0,1) and (1,2)
        assert [loc.qubits for loc in locations] == [(0, 1), (1, 2)]
        assert all(loc.kind == "burst" for loc in locations)
        assert all(loc.after_op == -1 for loc in locations)

    def test_weight_one_degenerates_to_singles(self):
        from repro.noise import burst_locations

        circuit = staircase()
        locations = burst_locations(circuit, weight=1)
        assert [loc.qubits for loc in locations] == [(0,), (1,), (2,)]

    def test_restricted_qubit_window(self):
        from repro.noise import burst_locations

        circuit = staircase()
        locations = burst_locations(circuit, weight=2, qubits=[2, 0, 1])
        # Windows slide over the *given ordering*.
        assert [loc.qubits for loc in locations] == [(2, 0), (0, 1)]

    def test_multiple_insertion_points(self):
        from repro.noise import burst_locations

        circuit = staircase()
        last = len(circuit.operations) - 1
        locations = burst_locations(circuit, weight=3,
                                    after_ops=(-1, last))
        assert [loc.after_op for loc in locations] == [-1, last]

    def test_validation(self):
        from repro.noise import burst_locations

        circuit = staircase()
        with pytest.raises(AnalysisError, match="weight"):
            burst_locations(circuit, weight=0)
        with pytest.raises(AnalysisError, match="exceeds"):
            burst_locations(circuit, weight=4)
        with pytest.raises(AnalysisError, match="after_op"):
            burst_locations(circuit, weight=1, after_ops=(99,))

    def test_count_locations_tolerates_new_kinds(self):
        from repro.noise import burst_locations, count_locations

        circuit = staircase()
        counts = count_locations(circuit)
        # count_locations must not KeyError if handed extended kinds
        # downstream; the histogram always carries the three classics.
        assert set(counts) >= {"input", "gate", "delay", "total"}
        bursts = burst_locations(circuit, weight=2)
        assert bursts[0].kind == "burst"
        assert count_locations(circuit, bursts) == {
            "input": 0, "gate": 0, "delay": 0, "burst": 2, "total": 2}


class TestCrosstalkLocations:
    """Spectator locations come from CrosstalkModel alone; with
    p_spectator = 1 every coupled gate strikes one of its spectators."""

    @staticmethod
    def spectators(circuit, seed=0, **options):
        model = CrosstalkModel(0.0, p_spectator=1.0, **options)
        return [fault.location for fault in
                model.sample_faults(circuit, np.random.default_rng(seed))]

    def test_linear_chain_spectators(self):
        circuit = Circuit(4)
        circuit.add_gate(gates.CNOT, 1, 2)
        seen = set()
        for seed in range(32):
            locations = self.spectators(circuit, seed)
            assert len(locations) == 1
            assert locations[0].kind == "crosstalk"
            assert locations[0].after_op == 0
            seen.add(locations[0].qubits)
        assert seen == {(0,), (3,)}

    def test_single_qubit_gates_have_no_spectators(self):
        circuit = Circuit(3)
        circuit.add_gate(gates.H, 1)
        assert self.spectators(circuit) == []

    def test_custom_coupling(self):
        circuit = Circuit(4)
        circuit.add_gate(gates.CNOT, 0, 1)
        locations = self.spectators(circuit, coupling={0: (3,), 1: ()})
        assert [loc.qubits for loc in locations] == [(3,)]

    def test_edge_clipping(self):
        circuit = Circuit(2)
        circuit.add_gate(gates.CNOT, 0, 1)
        # Chain neighbors -1 and 2 fall off the register: no spectators.
        assert self.spectators(circuit) == []


def bare_gadget(circuit: Circuit) -> Gadget:
    register = Register("q", tuple(range(circuit.num_qubits)))
    return Gadget(name="bare", circuit=circuit, registers={"q": register})


class TestExhaustiveMultiQubitLocations:
    def test_exhaustive_single_faults_over_burst_locations(self):
        """run_exhaustive accepts multi-qubit (burst) locations: every
        non-identity Pauli on the window is tried."""
        from repro.noise import burst_locations

        circuit = Circuit(2)
        circuit.add_gate(gates.X, 0)
        circuit.add_gate(gates.X, 1)
        locations = burst_locations(circuit, weight=2, after_ops=(1,))
        seen = []

        def evaluator(state):
            seen.append(True)
            return True  # accept everything; we count coverage

        survey = run_exhaustive(bare_gadget(circuit), SparseState(2),
                                evaluator, locations=locations)
        assert survey.failures == []
        assert survey.checked == 15
        assert len(seen) == 15  # 4^2 - 1 Paulis on the one window

    def test_exhaustive_burst_failures_detected(self):
        from repro.noise import burst_locations

        circuit = Circuit(2)
        circuit.add_gate(gates.X, 0)
        circuit.add_gate(gates.X, 1)
        locations = burst_locations(circuit, weight=2, after_ops=(1,))
        reference = SparseState(2)
        reference.apply_circuit(circuit)

        def evaluator(state):
            return state.fidelity(reference) > 1 - 1e-10

        survey = run_exhaustive(bare_gadget(circuit), SparseState(2),
                                evaluator, locations=locations)
        # X,Y flips and phase-carrying faults all disturb |11>... every
        # non-phase-only Pauli fails; pure-Z faults only add phase.
        failing_labels = {pauli.label() for _, pauli in survey.failures}
        assert "XX" in failing_labels
        assert "ZZ" not in failing_labels

    def test_exhaustive_over_crosstalk_and_delay_locations(self):
        circuit = Circuit(3)
        circuit.add_gate(gates.X, 1)        # q1 busy at moment 0
        circuit.add_gate(gates.X, 0)
        circuit.add_gate(gates.X, 0)        # q1 idles during moment 1
        circuit.add_gate(gates.CNOT, 0, 1)
        delays = [loc for loc in enumerate_locations(circuit)
                  if loc.kind == "delay"]
        # The CNOT's one chain neighbour (q2) is its spectator.
        spectators = TestCrosstalkLocations.spectators(circuit)
        assert [loc.qubits for loc in spectators] == [(2,)]
        assert all(loc.kind == "crosstalk" for loc in spectators)
        assert delays and spectators
        mixed = delays + spectators
        attempts = []

        def evaluator(state):
            attempts.append(True)
            return True

        survey = run_exhaustive(bare_gadget(circuit), SparseState(3),
                                evaluator, locations=mixed,
                                channel="bit_flip")
        assert survey.failures == []
        # bit_flip channel: exactly one X fault per single-qubit
        # location, multi-qubit would multiply accordingly.
        assert survey.checked == len(mixed)
        # Coincident faults (the same X at the same point) are judged
        # once each.
        distinct = {(loc.qubits, loc.after_op) for loc in mixed}
        assert len(attempts) == survey.stats.evaluations == len(distinct)
