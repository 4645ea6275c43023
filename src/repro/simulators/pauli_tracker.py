"""Pauli fault propagation through circuits (Heisenberg picture).

Given a circuit and a Pauli fault inserted at some point, this module
computes the equivalent Pauli error at the end of the circuit by
conjugating through every later gate.  For Clifford circuits the result
is exact; at non-Clifford gates (Toffoli, controlled-S, T) a Pauli may
conjugate to a non-Pauli, and the propagator then applies the
*conservative* policy: every qubit the gate touches is marked "wild" —
it may carry an arbitrary error from that point on.  Wildness is
contagious: any later gate touching a wild qubit makes all its qubits
wild.

This over-approximation is exactly what is needed for the paper-style
fault counting: a fault combination is declared benign only when its
propagated error (including wild qubits) is correctable, so the
malignant-pair counts of :mod:`repro.analysis` are upper bounds, and
the derived thresholds are lower bounds — the safe direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence, Set

from repro.circuits.circuit import Circuit, GateOp
from repro.circuits.clifford import conjugate_pauli
from repro.circuits.pauli import PauliString
from repro.exceptions import AnalysisError


@dataclass(frozen=True)
class PropagatedFault:
    """The end-of-circuit image of an injected Pauli fault.

    Attributes:
        pauli: the propagated Pauli error on the non-wild qubits (its
            factors on wild qubits are meaningless and set to I).
        wild_qubits: qubits whose error is unknown because the fault
            passed non-trivially through a non-Clifford gate.
    """

    pauli: PauliString
    wild_qubits: FrozenSet[int] = frozenset()

    def x_support(self) -> Set[int]:
        """Qubits possibly carrying a bit error (wild counts as yes)."""
        support = {
            q for q in range(self.pauli.num_qubits) if self.pauli.x_bits[q]
        }
        return support | set(self.wild_qubits)

    def z_support(self) -> Set[int]:
        """Qubits possibly carrying a phase error (wild counts as yes)."""
        support = {
            q for q in range(self.pauli.num_qubits) if self.pauli.z_bits[q]
        }
        return support | set(self.wild_qubits)

    def support(self) -> Set[int]:
        return self.x_support() | self.z_support()

    def combine(self, other: "PropagatedFault") -> "PropagatedFault":
        """Union of two propagated faults (for multi-fault events)."""
        return PropagatedFault(
            pauli=self.pauli * other.pauli,
            wild_qubits=self.wild_qubits | other.wild_qubits,
        )


class PauliPropagator:
    """Propagates Pauli faults through one fixed circuit.

    Args:
        circuit: a measurement-free circuit (the paper's gadgets all
            are — that is the point).
        strict: when True, hitting a non-Clifford gate raises
            :class:`AnalysisError` instead of going wild.
    """

    def __init__(self, circuit: Circuit, strict: bool = False) -> None:
        self._gate_ops: List[GateOp] = []
        for op in circuit.operations:
            if not isinstance(op, GateOp):
                raise AnalysisError(
                    "PauliPropagator requires a measurement-free circuit"
                )
            self._gate_ops.append(op)
        self._num_qubits = circuit.num_qubits
        self._strict = strict

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    def propagate(self, fault: PauliString,
                  after_op: int = -1) -> PropagatedFault:
        """Push a fault occurring just after op index ``after_op``.

        ``after_op = -1`` means the fault sits on the circuit inputs.
        """
        if fault.num_qubits != self._num_qubits:
            raise AnalysisError("fault size does not match circuit")
        pauli = fault
        wild: Set[int] = set()
        for index in range(after_op + 1, len(self._gate_ops)):
            op = self._gate_ops[index]
            touches_wild = any(q in wild for q in op.qubits)
            local = pauli.restricted(op.qubits)
            if touches_wild:
                # Contagion: the gate can turn the unknown error into
                # anything on all its qubits.
                wild.update(op.qubits)
                pauli = _clear_qubits(pauli, op.qubits)
                continue
            if local.is_identity:
                continue
            conjugated = conjugate_pauli(op.gate, op.qubits, pauli)
            if conjugated is None:
                if self._strict:
                    raise AnalysisError(
                        f"fault {pauli!r} does not stay Pauli through "
                        f"{op.gate.name} on {op.qubits}"
                    )
                wild.update(op.qubits)
                pauli = _clear_qubits(pauli, op.qubits)
                continue
            pauli = conjugated
        return PropagatedFault(pauli=pauli, wild_qubits=frozenset(wild))


def _clear_qubits(pauli: PauliString, qubits: Sequence[int]) -> PauliString:
    x_bits = list(pauli.x_bits)
    z_bits = list(pauli.z_bits)
    for qubit in qubits:
        x_bits[qubit] = 0
        z_bits[qubit] = 0
    cleared = PauliString(pauli.num_qubits, tuple(x_bits), tuple(z_bits))
    return cleared.strip_phase()
