"""Equality of states, operators and circuits up to global phase.

Every simulator in :mod:`repro.simulators` represents the same physics
in a different picture — amplitudes, density matrices, sparse terms,
Heisenberg-frame Paulis — and each picture is free to differ from the
others by a global phase (and nothing else).  The differential oracle
in :mod:`repro.verify` needs one canonical vocabulary for "these two
representations agree", which this module provides:

* :func:`global_phase_between` — the phase factor relating two vectors
  or matrices, or ``None`` when no single phase relates them;
* :func:`operators_equal_up_to_phase` — the boolean form of the same
  question;
* :func:`state_discrepancy` / :func:`mixed_state_discrepancy` — graded
  forms (0.0 = identical up to phase), used to rank divergences;
* :func:`embed_operator` — a k-qubit operator embedded into an n-qubit
  register (the single shared implementation the verify backends use);
* :func:`circuit_unitary` — the dense unitary of a measurement-free
  circuit, the ground truth small circuits are compared against.

The helpers are deliberately representation-agnostic (plain numpy in
and out) so they can compare *across* simulator types.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.circuits.circuit import Circuit, GateOp
from repro.exceptions import CircuitError

_ATOL = 1e-8

#: Registers above this size make dense 2^n x 2^n unitaries impractical.
MAX_DENSE_UNITARY_QUBITS = 12


def global_phase_between(a: np.ndarray, b: np.ndarray,
                         atol: float = _ATOL) -> Optional[complex]:
    """The unit phase factor c with ``a == c * b``, or ``None``.

    Works for vectors and matrices alike.  The phase is fixed against
    the largest entry of ``b``, so numerically negligible entries never
    pollute the estimate.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        return None
    index = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    pivot = b[index]
    if abs(pivot) < atol:
        # b is (numerically) zero: equal iff a is too, phase is trivial.
        return 1.0 + 0.0j if np.allclose(a, b, atol=atol) else None
    phase = a[index] / pivot
    if abs(abs(phase) - 1.0) > 10 * atol:
        return None
    if not np.allclose(a, phase * b, atol=10 * atol):
        return None
    return complex(phase)


def operators_equal_up_to_phase(a: np.ndarray, b: np.ndarray,
                                atol: float = _ATOL) -> bool:
    """Whether two operators are equal up to one global phase."""
    return global_phase_between(a, b, atol) is not None


def state_discrepancy(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |<a|b>|^2 for normalised vectors: 0.0 iff equal up to phase.

    This is the infidelity, the graded divergence measure the oracle
    reports so a real backend bug (discrepancy ~ 1) is distinguishable
    from numerical noise (discrepancy ~ 1e-15).
    """
    a = np.asarray(a, dtype=np.complex128).reshape(-1)
    b = np.asarray(b, dtype=np.complex128).reshape(-1)
    if a.shape != b.shape:
        return 1.0
    return max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2)


def mixed_state_discrepancy(rho: np.ndarray, vector: np.ndarray) -> float:
    """1 - <psi| rho |psi>: 0.0 iff the mixed state is the pure one."""
    vector = np.asarray(vector, dtype=np.complex128).reshape(-1)
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (vector.shape[0], vector.shape[0]):
        return 1.0
    return max(0.0, 1.0 - float(np.real(vector.conj() @ rho @ vector)))


def embed_operator(matrix: np.ndarray, qubits: Sequence[int],
                   num_qubits: int) -> np.ndarray:
    """Embed a k-qubit operator on ``qubits`` into the full register.

    Qubit 0 is the most significant index bit, matching every
    simulator in :mod:`repro.simulators`.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise CircuitError(
            f"operator shape {matrix.shape} does not match {k} qubits"
        )
    for qubit in qubits:
        if not 0 <= qubit < num_qubits:
            raise CircuitError(f"qubit {qubit} out of range")
    if len(set(qubits)) != k:
        raise CircuitError(f"duplicate qubits in {qubits}")
    gate_tensor = matrix.reshape((2,) * (2 * k))
    identity = np.eye(2**num_qubits).reshape((2,) * (2 * num_qubits))
    op = np.tensordot(gate_tensor, identity,
                      axes=(list(range(k, 2 * k)), list(qubits)))
    order = list(qubits) + [q for q in range(num_qubits)
                            if q not in qubits]
    inverse = list(np.argsort(order))
    perm = inverse + list(range(num_qubits, 2 * num_qubits))
    return np.transpose(op, perm).reshape(2**num_qubits, 2**num_qubits)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """The dense unitary implemented by a measurement-free circuit.

    Each gate is contracted into the row axes of the running unitary:
    one ``tensordot`` per operation, O(4^n * 2^k) for a k-qubit gate.
    """
    if circuit.has_measurements or circuit.has_classical_control:
        raise CircuitError(
            "circuit_unitary requires a purely unitary circuit"
        )
    n = circuit.num_qubits
    if n > MAX_DENSE_UNITARY_QUBITS:
        raise CircuitError(
            f"refusing a dense unitary on {n} qubits "
            f"(limit {MAX_DENSE_UNITARY_QUBITS})"
        )
    dim = 2**n
    # Axes: one per row qubit (qubit 0 most significant), then columns.
    unitary = np.eye(dim, dtype=np.complex128).reshape((2,) * n + (dim,))
    for op in circuit.operations:
        assert isinstance(op, GateOp)
        qubits = list(op.qubits)
        k = len(qubits)
        gate = np.asarray(op.gate.matrix, dtype=np.complex128)
        unitary = np.moveaxis(
            np.tensordot(gate.reshape((2,) * (2 * k)), unitary,
                         axes=(list(range(k, 2 * k)), qubits)),
            list(range(k)), qubits)
    return unitary.reshape(dim, dim)
