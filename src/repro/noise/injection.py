"""Fault injection into dense state-vector simulations.

Executes a small (measurement-free) circuit on the dense
:class:`~repro.simulators.statevector.StateVector` with an explicit list
of Pauli faults inserted, or with coherent over-rotations composed in.
These are reference executors for hand-checked cases; sampling and
exhaustive surveys over a gadget's fault space run on the sparse
simulator through :mod:`repro.analysis.engine`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import Circuit, GateOp
from repro.circuits.pauli import PauliString
from repro.exceptions import SimulationError
from repro.simulators.statevector import StateVector


def run_with_faults(circuit: Circuit,
                    faults: Sequence[Tuple[PauliString, int]],
                    initial_state: Optional[StateVector] = None
                    ) -> StateVector:
    """Run a unitary circuit with Pauli faults inserted.

    Args:
        circuit: measurement-free circuit.
        faults: (pauli, after_op) pairs; after_op = -1 injects before
            the first operation.  Multiple faults at one point compose.
        initial_state: starting state (default |0...0>).

    Returns:
        The corrupted output state.
    """
    if initial_state is None:
        state = StateVector(circuit.num_qubits)
    else:
        state = initial_state.copy()
        if state.num_qubits != circuit.num_qubits:
            raise SimulationError("initial state size mismatch")
    by_point: Dict[int, List[PauliString]] = {}
    for pauli, after_op in faults:
        by_point.setdefault(after_op, []).append(pauli)
    for pauli in by_point.get(-1, []):
        state.apply_pauli(pauli)
    for index, op in enumerate(circuit.operations):
        if not isinstance(op, GateOp) or op.condition is not None:
            raise SimulationError(
                "run_with_faults requires an unconditional unitary circuit"
            )
        state.apply_gate(op.gate, op.qubits)
        for pauli in by_point.get(index, []):
            state.apply_pauli(pauli)
    return state


def run_with_coherent_noise(circuit: Circuit,
                            model: "CoherentOverRotationModel",
                            initial_state: Optional[StateVector] = None,
                            extra_faults: Sequence[Tuple[PauliString, int]]
                            = ()) -> StateVector:
    """Run a circuit with systematic unitary over-rotations composed in.

    Coherent noise has no stochastic Pauli unravelling, so it cannot go
    through the sampling engine
    (:func:`~repro.analysis.engine.run_monte_carlo`); instead the
    over-rotation unitary for each gate kind is applied to every
    touched qubit right after the gate — an exact, deterministic
    composition (pure states stay pure under fixed unitaries; use
    :func:`repro.simulators.channels.over_rotation` for the
    density-matrix form).

    Args:
        circuit: measurement-free circuit.
        model: a :class:`repro.noise.structured.CoherentOverRotationModel`
            (anything with an ``error_gate(gate_name)`` method).
        initial_state: starting state (default |0...0>).
        extra_faults: optional additional (pauli, after_op) Pauli
            faults, composed the same way :func:`run_with_faults`
            composes them — for studying coherent + stochastic mixes.
    """
    if initial_state is None:
        state = StateVector(circuit.num_qubits)
    else:
        state = initial_state.copy()
        if state.num_qubits != circuit.num_qubits:
            raise SimulationError("initial state size mismatch")
    by_point: Dict[int, List[PauliString]] = {}
    for pauli, after_op in extra_faults:
        by_point.setdefault(after_op, []).append(pauli)
    for pauli in by_point.get(-1, []):
        state.apply_pauli(pauli)
    for index, op in enumerate(circuit.operations):
        if not isinstance(op, GateOp) or op.condition is not None:
            raise SimulationError(
                "run_with_coherent_noise requires an unconditional "
                "unitary circuit"
            )
        state.apply_gate(op.gate, op.qubits)
        error = model.error_gate(op.gate.name)
        if error is not None:
            for qubit in op.qubits:
                state.apply_gate(error, (qubit,))
        for pauli in by_point.get(index, []):
            state.apply_pauli(pauli)
    return state
