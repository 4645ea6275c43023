"""Teleportation on ensemble machines (paper Sec. 2).

Three protocols:

* :func:`standard_teleportation_circuit` — Bell measurement plus
  classically controlled corrections.  Correct on one computer;
  *impossible* on an ensemble (the Bell outcomes differ per computer,
  the averaged signal is (1/2)lambda_0 + (1/2)lambda_1 = 0, and there
  is no way to decide how to rotate the third qubit).
* :func:`naive_ensemble_signal` — what physically happens if the
  measurement is replaced by decoherence and the classical control is
  dropped: the output qubit carries no signal.
* :func:`fully_quantum_teleportation` — the Brassard-Braunstein-Cleve
  form the paper cites (performed on NMR by Nielsen-Knill-Laflamme):
  the corrections become quantum-controlled gates and the control
  qubits may fully dephase first; no measurement is ever monitored,
  so the program is ensemble-safe.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.circuits import Circuit, ClassicalCondition, gates
from repro.ensemble.machine import EnsembleMachine
from repro.exceptions import ReproError
from repro.simulators.density_matrix import DensityMatrix
from repro.simulators.statevector import (
    StatevectorSimulator,
    StateVector,
)


def input_state(alpha: complex, beta: complex) -> StateVector:
    """|psi> = alpha|0> + beta|1> on qubit 0 of a 3-qubit register."""
    norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if norm < 1e-12:
        raise ReproError("zero input state")
    amplitudes = np.zeros(8, dtype=np.complex128)
    amplitudes[0b000] = alpha / norm
    amplitudes[0b100] = beta / norm
    return StateVector(3, amplitudes)


def _bell_pair_and_interaction(circuit: Circuit) -> None:
    """Shared prefix: Bell pair on (1,2), then the Bell-basis change
    on (0,1)."""
    circuit.add_gate(gates.H, 1)
    circuit.add_gate(gates.CNOT, 1, 2)
    circuit.add_gate(gates.CNOT, 0, 1)
    circuit.add_gate(gates.H, 0)


def standard_teleportation_circuit() -> Circuit:
    """Textbook teleportation: q0 -> q2 via Bell measurement."""
    circuit = Circuit(3, 2, name="standard_teleportation")
    _bell_pair_and_interaction(circuit)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    circuit.add_gate(gates.X, 2,
                     condition=ClassicalCondition((1,), 1))
    circuit.add_gate(gates.Z, 2,
                     condition=ClassicalCondition((0,), 1))
    return circuit


def fully_quantum_teleportation_circuit() -> Circuit:
    """Measurement-free teleportation: corrections under quantum
    control (deferred measurement); ensemble-safe."""
    circuit = Circuit(3, name="fully_quantum_teleportation")
    _bell_pair_and_interaction(circuit)
    circuit.add_gate(gates.CNOT, 1, 2)
    circuit.add_gate(gates.CZ, 0, 2)
    return circuit


def run_standard_on_single_computer(alpha: complex, beta: complex,
                                    seed: Optional[int] = None
                                    ) -> Tuple[float, Tuple[int, int]]:
    """Fidelity of the teleported qubit on one computer (should be 1)."""
    simulator = StatevectorSimulator(seed=seed)
    result = simulator.run(standard_teleportation_circuit(),
                           initial_state=input_state(alpha, beta))
    target = StateVector.from_amplitudes(
        np.array([alpha, beta], dtype=np.complex128)
    )
    # The output sits on qubit 2; qubits 0 and 1 are collapsed basis
    # states, so the reduced state is pure and directly comparable.
    outcome = (result.classical_bits[0], result.classical_bits[1])
    amplitudes = result.state.amplitudes.reshape(2, 2, 2)
    reduced = amplitudes[outcome[0], outcome[1], :]
    reduced = reduced / np.linalg.norm(reduced)
    fidelity = abs(np.vdot(target.amplitudes, reduced)) ** 2
    return float(fidelity), outcome


def naive_ensemble_signal(alpha: complex, beta: complex,
                          machine: EnsembleMachine,
                          sample_computers: int = 1024):
    """The Bell-measured ensemble: collapse happens, outcomes unread.

    Returns the per-qubit signals; the output qubit's signal averages
    over the four random correction branches and carries nothing
    about |psi> — the paper's "computationally useless" verdict.
    """
    circuit = Circuit(3, 2, name="naive_ensemble_teleport")
    _bell_pair_and_interaction(circuit)
    circuit.measure(0, 0)
    circuit.measure(1, 1)
    # No corrections possible: the outcomes are not accessible.
    return machine.run_with_internal_collapse(
        circuit, initial_state=input_state(alpha, beta),
        sample_computers=sample_computers,
    )


def fully_quantum_output_fidelity(alpha: complex, beta: complex,
                                  dephase_controls: bool = True) -> float:
    """Fidelity of qubit 2 after fully-quantum teleportation.

    With ``dephase_controls`` the control qubits are completely
    dephased *before* the controlled corrections — the paper's point
    that the controls may decohere (they are "classical" by then) and
    teleportation still succeeds, without any monitored measurement.
    """
    rho = DensityMatrix.from_statevector(input_state(alpha, beta))
    prefix = Circuit(3)
    _bell_pair_and_interaction(prefix)
    rho.apply_circuit(prefix)
    if dephase_controls:
        rho.dephase(0)
        rho.dephase(1)
    corrections = Circuit(3)
    corrections.add_gate(gates.CNOT, 1, 2)
    corrections.add_gate(gates.CZ, 0, 2)
    rho.apply_circuit(corrections)
    output = rho.partial_trace([2])
    norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    target = StateVector.from_amplitudes(
        np.array([alpha / norm, beta / norm], dtype=np.complex128)
    )
    return output.fidelity_with_pure(target)
