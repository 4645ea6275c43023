"""Coherent-noise injection into dense state-vector simulations.

Executes a small (measurement-free) circuit on the dense
:class:`~repro.simulators.statevector.StateVector` with coherent
over-rotations composed in, optionally alongside explicit Pauli
faults.  Stochastic Pauli faults alone go through
:func:`repro.ft.gadget.apply_circuit_with_faults`, which takes a
dense or a sparse state; sampling and exhaustive surveys over a
gadget's fault space run on the sparse simulator through
:mod:`repro.analysis.engine`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import Circuit, GateOp
from repro.circuits.pauli import PauliString
from repro.exceptions import SimulationError
from repro.simulators.statevector import StateVector


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
    composition (pure states stay pure under fixed unitaries).

    Args:
        circuit: measurement-free circuit.
        model: a :class:`repro.noise.structured.CoherentOverRotationModel`
            (anything with an ``error_gate(gate_name)`` method).
        initial_state: starting state (default |0...0>).
        extra_faults: optional additional (pauli, after_op) Pauli
            faults, composed the same way
            :func:`repro.ft.gadget.apply_circuit_with_faults` composes
            them — for studying coherent + stochastic mixes.
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
