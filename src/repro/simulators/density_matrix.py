"""Density-matrix simulation for small registers.

The ensemble model is naturally a density-matrix picture: the state of
"the ensemble" is the average state of its members, and an ensemble
readout of qubit q is exactly tr(rho Z_q).  This simulator is used for

* exact noise-channel evolution on few-qubit systems,
* the dephasing step of fully-quantum teleportation (Sec. 2 of the
  paper), which has no pure-state description, and
* cross-checking the Monte-Carlo fault injector against exact channel
  evolution.

Cost is O(4^n), so it is reserved for n <= ~10.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.circuits.circuit import Circuit, GateOp
from repro.circuits.gates import Gate
from repro.circuits.pauli import PauliString
from repro.exceptions import SimulationError
from repro.simulators.channels import KrausChannel, PauliChannel
from repro.simulators.statevector import StateVector

_ATOL = 1e-9


class DensityMatrix:
    """A mixed state rho on n qubits (big-endian index convention)."""

    def __init__(self, num_qubits: int,
                 matrix: Optional[np.ndarray] = None) -> None:
        if num_qubits < 0:
            raise SimulationError("num_qubits must be non-negative")
        self.num_qubits = num_qubits
        dim = 2**num_qubits
        if matrix is None:
            rho = np.zeros((dim, dim), dtype=np.complex128)
            rho[0, 0] = 1.0
        else:
            rho = np.asarray(matrix, dtype=np.complex128)
            if rho.shape != (dim, dim):
                raise SimulationError(
                    f"density matrix shape {rho.shape} does not match "
                    f"{num_qubits} qubits"
                )
            trace = np.trace(rho).real
            if abs(trace - 1.0) > 1e-6:
                raise SimulationError(f"trace {trace:.6f} is not 1")
        self._rho = rho

    @classmethod
    def from_statevector(cls, state: StateVector) -> "DensityMatrix":
        amplitudes = state.amplitudes
        return cls(state.num_qubits, np.outer(amplitudes,
                                              amplitudes.conj()))

    @property
    def matrix(self) -> np.ndarray:
        view = self._rho.view()
        view.setflags(write=False)
        return view

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.num_qubits, self._rho.copy())

    # -- evolution ---------------------------------------------------------

    def apply_gate(self, gate: Gate, qubits: Sequence[int]) -> None:
        full = self._embed(gate.matrix, qubits)
        self._rho = full @ self._rho @ full.conj().T

    def apply_circuit(self, circuit: Circuit) -> None:
        """Apply a unitary (measurement-free, condition-free) circuit."""
        for op in circuit.operations:
            if not isinstance(op, GateOp) or op.condition is not None:
                raise SimulationError(
                    "DensityMatrix.apply_circuit handles unitary "
                    "circuits only"
                )
            self.apply_gate(op.gate, op.qubits)

    def apply_kraus(self, channel: KrausChannel,
                    qubits: Sequence[int]) -> None:
        full_ops = [self._embed(op, qubits) for op in channel.operators]
        result = np.zeros_like(self._rho)
        for op in full_ops:
            result += op @ self._rho @ op.conj().T
        self._rho = result

    def apply_pauli_channel(self, channel: PauliChannel,
                            qubits: Sequence[int]) -> None:
        self.apply_kraus(channel.to_kraus(), qubits)

    def dephase(self, qubit: int) -> None:
        """Completely remove coherences of one qubit.

        This is the operation the fully-quantum teleportation protocol
        applies to its control qubits before they steer the correction:
        after dephasing, using them as controls is equivalent to the
        measurement-and-classical-control of standard teleportation,
        yet no individual-computer measurement ever happens.
        """
        z = self._embed(np.array([[1, 0], [0, -1]], dtype=np.complex128),
                        [qubit])
        self._rho = 0.5 * (self._rho + z @ self._rho @ z)

    # -- readout -------------------------------------------------------------

    def expectation_z(self, qubit: int) -> float:
        """tr(rho Z_q): the ensemble signal for qubit q."""
        z = self._embed(np.array([[1, 0], [0, -1]], dtype=np.complex128),
                        [qubit])
        return float(np.trace(self._rho @ z).real)

    def expectation_pauli(self, pauli: PauliString) -> complex:
        if pauli.num_qubits != self.num_qubits:
            raise SimulationError("PauliString size mismatch")
        return complex(np.trace(self._rho @ pauli.matrix()))

    def probabilities(self) -> np.ndarray:
        return np.clip(np.diag(self._rho).real, 0.0, 1.0)

    def probability_of_outcome(self, qubit: int, outcome: int) -> float:
        probs = self.probabilities().reshape((2,) * self.num_qubits)
        return float(np.sum(np.take(probs, outcome, axis=qubit)))

    def measure(self, qubit: int,
                rng: Optional[np.random.Generator] = None) -> int:
        """Projective measurement with collapse."""
        if rng is None:
            rng = np.random.default_rng()
        p_one = self.probability_of_outcome(qubit, 1)
        outcome = int(rng.random() < p_one)
        self.project(qubit, outcome)
        return outcome

    def project(self, qubit: int, outcome: int) -> float:
        projector = np.zeros((2, 2), dtype=np.complex128)
        projector[outcome, outcome] = 1.0
        full = self._embed(projector, [qubit])
        unnormalised = full @ self._rho @ full
        probability = float(np.trace(unnormalised).real)
        if probability < _ATOL:
            raise SimulationError(
                f"projection of qubit {qubit} onto |{outcome}> has zero "
                "probability"
            )
        self._rho = unnormalised / probability
        return probability

    def partial_trace(self, keep: Sequence[int]) -> "DensityMatrix":
        """Trace out every qubit not listed in ``keep``."""
        keep = list(keep)
        n = self.num_qubits
        tensor = self._rho.reshape((2,) * (2 * n))
        trace_out = [q for q in range(n) if q not in keep]
        for offset, qubit in enumerate(sorted(trace_out)):
            axis = qubit - offset
            tensor = np.trace(tensor, axis1=axis,
                              axis2=axis + (n - offset))
        k = len(keep)
        matrix = tensor.reshape(2**k, 2**k)
        # Reorder kept qubits into the requested order.
        current = sorted(keep)
        if current != keep:
            order = [current.index(q) for q in keep]
            tensor = matrix.reshape((2,) * (2 * k))
            perm = order + [k + axis for axis in order]
            tensor = np.transpose(tensor, perm)
            matrix = tensor.reshape(2**k, 2**k)
        return DensityMatrix(k, matrix)

    def purity(self) -> float:
        return float(np.trace(self._rho @ self._rho).real)

    def fidelity_with_pure(self, state: StateVector) -> float:
        """<psi| rho |psi>."""
        amplitudes = state.amplitudes
        return float(np.real(amplitudes.conj() @ self._rho @ amplitudes))

    def _embed(self, matrix: np.ndarray,
               qubits: Sequence[int]) -> np.ndarray:
        k = len(qubits)
        if matrix.shape != (2**k, 2**k):
            raise SimulationError("operator shape mismatch")
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise SimulationError(f"qubit {qubit} out of range")
        n = self.num_qubits
        gate_tensor = matrix.reshape((2,) * (2 * k))
        # Contract the gate's input legs with the identity's row axes;
        # the result's axes are [gate outputs (gate order), remaining
        # rows (ascending), all columns (ascending, untouched)].
        op = np.tensordot(gate_tensor,
                          np.eye(2**n).reshape((2,) * (2 * n)),
                          axes=(list(range(k, 2 * k)), list(qubits)))
        order = list(qubits) + [q for q in range(n) if q not in qubits]
        inverse = list(np.argsort(order))
        perm = inverse + list(range(n, 2 * n))
        op = np.transpose(op, perm)
        return op.reshape(2**n, 2**n)


