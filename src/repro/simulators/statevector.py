"""Dense state-vector simulation.

:class:`StateVector` stores the amplitudes of an n-qubit register in
big-endian order (qubit 0 is the most significant bit of the index, so
``state[0b10]`` on two qubits is the amplitude of |1>|0>).  Gates are
applied by tensor contraction, which keeps the cost at
O(2^n * 2^k) per k-qubit gate.

Qubit allocation and release (:meth:`StateVector.allocate`,
:meth:`StateVector.release`) let fault-tolerant gadgets use fresh
ancilla blocks and drop them once they are verifiably disentangled,
keeping Steane-code simulations inside a laptop's memory budget.

:class:`StatevectorSimulator` executes full circuits, including
single-computer measurements and classically-conditioned gates — the
operations an *ensemble* machine forbids — so it doubles as the
reference "single quantum computer" the paper contrasts the ensemble
model against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.circuits.circuit import (
    Circuit,
    GateOp,
    MeasureOp,
    ResetOp,
)
from repro.circuits.gates import Gate
from repro.circuits.pauli import PauliString
from repro.exceptions import SimulationError

_ATOL = 1e-9


class StateVector:
    """Amplitudes of a pure n-qubit state with mutable register size."""

    def __init__(self, num_qubits: int,
                 amplitudes: Optional[np.ndarray] = None) -> None:
        if num_qubits < 0:
            raise SimulationError("num_qubits must be non-negative")
        self.num_qubits = num_qubits
        if amplitudes is None:
            data = np.zeros(2**num_qubits, dtype=np.complex128)
            data[0] = 1.0
        else:
            data = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
            if data.shape[0] != 2**num_qubits:
                raise SimulationError(
                    f"amplitude vector has length {data.shape[0]}, "
                    f"expected {2**num_qubits}"
                )
            norm = np.linalg.norm(data)
            if abs(norm - 1.0) > 1e-6:
                raise SimulationError(
                    f"state vector is not normalised (norm {norm:.6f})"
                )
        self._data = data

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_basis_state(cls, bits: Sequence[int]) -> "StateVector":
        """|b0 b1 ... b_{n-1}> with qubit 0 the leftmost bit."""
        index = 0
        for bit in bits:
            index = (index << 1) | (bit & 1)
        state = cls(len(bits))
        state._data[0] = 0.0
        state._data[index] = 1.0
        return state

    @classmethod
    def from_amplitudes(cls, amplitudes: Sequence[complex]) -> "StateVector":
        data = np.asarray(amplitudes, dtype=np.complex128)
        num_qubits = int(round(math.log2(data.shape[0])))
        if 2**num_qubits != data.shape[0]:
            raise SimulationError("amplitude length is not a power of two")
        norm = np.linalg.norm(data)
        if norm < _ATOL:
            raise SimulationError("cannot normalise the zero vector")
        return cls(num_qubits, data / norm)

    def copy(self) -> "StateVector":
        clone = StateVector(self.num_qubits)
        clone._data = self._data.copy()
        return clone

    # -- access -----------------------------------------------------------

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only view of the amplitude vector."""
        view = self._data.view()
        view.setflags(write=False)
        return view

    def amplitude(self, bits: Sequence[int]) -> complex:
        """Amplitude of the computational basis state |b0...b_{n-1}>."""
        index = 0
        for bit in bits:
            index = (index << 1) | (bit & 1)
        return complex(self._data[index])

    # -- unitary evolution -------------------------------------------------

    def apply_gate(self, gate: Gate, qubits: Sequence[int]) -> None:
        """Apply a gate in place to the listed qubits (gate order)."""
        self.apply_matrix(gate.matrix, qubits)

    def apply_matrix(self, matrix: np.ndarray,
                     qubits: Sequence[int]) -> None:
        """Apply a unitary matrix to the listed qubits in place."""
        k = len(qubits)
        if matrix.shape != (2**k, 2**k):
            raise SimulationError(
                f"matrix shape {matrix.shape} does not match {k} qubits"
            )
        for qubit in qubits:
            self._check_qubit(qubit)
        if len(set(qubits)) != k:
            raise SimulationError(f"duplicate qubits in {qubits}")
        n = self.num_qubits
        tensor = self._data.reshape((2,) * n)
        gate_tensor = matrix.reshape((2,) * (2 * k))
        # Contract the gate's input legs with the state's qubit axes.
        moved = np.tensordot(gate_tensor, tensor,
                             axes=(list(range(k, 2 * k)), list(qubits)))
        # tensordot puts the k output legs first; restore axis order.
        order = list(qubits) + [q for q in range(n) if q not in qubits]
        inverse = np.argsort(order)
        self._data = np.transpose(moved, inverse).reshape(-1)

    def apply_pauli(self, pauli: PauliString) -> None:
        """Apply a Pauli string (fault injection fast-path)."""
        if pauli.num_qubits != self.num_qubits:
            raise SimulationError("PauliString size mismatch")
        from repro.circuits import gates as gate_lib

        for qubit in pauli.support():
            kind = pauli.kind_at(qubit)
            self.apply_gate(gate_lib.PAULI_GATES[kind], [qubit])
        offset = pauli.phase_offset()
        if offset:
            self._data *= 1j**offset

    def apply_circuit(self, circuit: Circuit,
                      qubits: Optional[Sequence[int]] = None) -> None:
        """Apply a measurement-free circuit, optionally remapped.

        Args:
            circuit: a unitary circuit.
            qubits: register qubits playing the role of the circuit's
                qubits 0..n-1 (identity mapping when omitted).
        """
        if circuit.has_measurements:
            raise SimulationError(
                "apply_circuit only handles unitary circuits; use "
                "StatevectorSimulator.run for measurements"
            )
        if qubits is None:
            mapping = list(range(circuit.num_qubits))
        else:
            mapping = list(qubits)
            if len(mapping) != circuit.num_qubits:
                raise SimulationError("qubit mapping size mismatch")
        for op in circuit.operations:
            assert isinstance(op, GateOp)
            if op.condition is not None:
                raise SimulationError(
                    "classically conditioned gate in unitary context"
                )
            self.apply_gate(op.gate, [mapping[q] for q in op.qubits])

    # -- measurement and readout -------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Probability of each computational basis state."""
        return np.abs(self._data) ** 2

    def probability_of_outcome(self, qubit: int, outcome: int) -> float:
        """P(measuring ``qubit`` yields ``outcome``)."""
        self._check_qubit(qubit)
        axis = qubit
        tensor = self.probabilities().reshape((2,) * self.num_qubits)
        sliced = np.take(tensor, outcome, axis=axis)
        return float(np.sum(sliced))

    def expectation_z(self, qubit: int) -> float:
        """<Z_qubit> — this is what an ensemble readout reports."""
        return (self.probability_of_outcome(qubit, 0)
                - self.probability_of_outcome(qubit, 1))

    def expectation_pauli(self, pauli: PauliString) -> complex:
        """<psi| P |psi> for an arbitrary Pauli string."""
        scratch = self.copy()
        scratch.apply_pauli(pauli)
        return complex(np.vdot(self._data, scratch._data))

    def measure(self, qubit: int,
                rng: Optional[np.random.Generator] = None) -> int:
        """Projective measurement with collapse; returns the outcome."""
        if rng is None:
            rng = np.random.default_rng()
        p_one = self.probability_of_outcome(qubit, 1)
        outcome = int(rng.random() < p_one)
        self.project(qubit, outcome)
        return outcome

    def project(self, qubit: int, outcome: int) -> float:
        """Project onto |outcome> of ``qubit`` and renormalise.

        Returns the probability of that outcome (useful for
        postselection).  Raises if the outcome has zero probability.
        """
        self._check_qubit(qubit)
        tensor = self._data.reshape((2,) * self.num_qubits)
        keep = np.take(tensor, outcome, axis=qubit)
        norm = np.linalg.norm(keep)
        if norm < _ATOL:
            raise SimulationError(
                f"projection of qubit {qubit} onto |{outcome}> has zero "
                "probability"
            )
        other = np.zeros_like(keep)
        parts = [keep / norm, other] if outcome == 0 else [other, keep / norm]
        self._data = np.stack(parts, axis=qubit).reshape(-1)
        return float(norm**2)

    # -- register management ------------------------------------------------

    def allocate(self, count: int = 1) -> List[int]:
        """Append ``count`` fresh |0> qubits; returns their indices."""
        if count < 1:
            raise SimulationError("allocate needs a positive count")
        new_indices = list(range(self.num_qubits, self.num_qubits + count))
        expanded = np.zeros(2**count, dtype=np.complex128)
        expanded[0] = 1.0
        self._data = np.kron(self._data, expanded)
        self.num_qubits += count
        return new_indices

    def release(self, qubits: Sequence[int]) -> None:
        """Remove qubits that are deterministically |0>.

        The fault-tolerant gadgets discard syndrome and scratch blocks
        only after uncomputing them; this check makes an incorrectly
        uncomputed ancilla a loud failure instead of silent leakage.
        """
        for qubit in sorted(set(qubits), reverse=True):
            self._check_qubit(qubit)
            if self.probability_of_outcome(qubit, 1) > 1e-7:
                raise SimulationError(
                    f"cannot release qubit {qubit}: it is not in |0> "
                    f"(P(1)={self.probability_of_outcome(qubit, 1):.3e})"
                )
            tensor = self._data.reshape((2,) * self.num_qubits)
            kept = np.take(tensor, 0, axis=qubit)
            self._data = kept.reshape(-1)
            norm = np.linalg.norm(self._data)
            self._data /= norm
            self.num_qubits -= 1

    # -- comparison -----------------------------------------------------------

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.num_qubits != other.num_qubits:
            raise SimulationError("inner: size mismatch")
        return complex(np.vdot(self._data, other._data))

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|^2."""
        return abs(self.inner(other)) ** 2

    def equals(self, other: "StateVector", *,
               up_to_global_phase: bool = True, atol: float = 1e-7) -> bool:
        """State equality, by default ignoring global phase."""
        if self.num_qubits != other.num_qubits:
            return False
        if up_to_global_phase:
            return bool(abs(1.0 - self.fidelity(other)) < atol)
        return bool(np.allclose(self._data, other._data, atol=atol))

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(
                f"qubit {qubit} out of range [0, {self.num_qubits})"
            )

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


@dataclass
class SimulationResult:
    """Outcome of running a circuit on one simulated computer."""

    state: StateVector
    classical_bits: List[int] = field(default_factory=list)


class StatevectorSimulator:
    """Executes circuits — measurements included — on one computer.

    This models a *single* quantum computer, the setting standard fault
    tolerance was designed for.  The ensemble machine in
    :mod:`repro.ensemble` wraps many of these and removes the readout
    capabilities the paper says an ensemble lacks.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = np.random.default_rng(seed)

    def run(self, circuit: Circuit,
            initial_state: Optional[StateVector] = None) -> SimulationResult:
        """Run the circuit once, sampling measurement outcomes."""
        if initial_state is None:
            state = StateVector(circuit.num_qubits)
        else:
            state = initial_state.copy()
            if state.num_qubits != circuit.num_qubits:
                raise SimulationError(
                    "initial state size does not match circuit"
                )
        classical = [0] * circuit.num_clbits
        for op in circuit.operations:
            if isinstance(op, GateOp):
                if op.condition is None or op.condition.is_satisfied(classical):
                    state.apply_gate(op.gate, op.qubits)
            elif isinstance(op, MeasureOp):
                classical[op.clbit] = state.measure(op.qubit, self._rng)
            elif isinstance(op, ResetOp):
                outcome = state.measure(op.qubit, self._rng)
                if outcome:
                    from repro.circuits import gates as gate_lib

                    state.apply_gate(gate_lib.X, [op.qubit])
            else:  # pragma: no cover - exhaustive over Operation
                raise SimulationError(f"unknown operation {op!r}")
        return SimulationResult(state=state, classical_bits=classical)


def run_unitary(circuit: Circuit,
                initial_state: Optional[StateVector] = None) -> StateVector:
    """Apply a measurement-free circuit and return the output state."""
    if initial_state is None:
        state = StateVector(circuit.num_qubits)
    else:
        state = initial_state.copy()
    state.apply_circuit(circuit)
    return state
