"""Pauli-string algebra.

The paper's fault-tolerance arguments are all phrased in terms of how
bit errors (X) and phase errors (Z) propagate through circuits: a CNOT
copies X from control to target and Z from target to control, which is
precisely why a *classical* ancilla acting as control can never inject
phase errors into the quantum data.  This module provides the
:class:`PauliString` type those arguments are computed with.

A Pauli string on n qubits is stored in the symplectic representation:
an X bit-vector, a Z bit-vector and a phase exponent k with overall
phase i^k.  A qubit with both its X and Z bit set carries Y (up to the
tracked phase).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from repro.exceptions import CircuitError

_SINGLE = {
    (0, 0): "I",
    (1, 0): "X",
    (0, 1): "Z",
    (1, 1): "Y",
}
_SINGLE_INV = {name: bits for bits, name in _SINGLE.items()}
# Phase of writing (x,z) as i^k X^x Z^z: Y = i X Z, so (1,1) carries i.
_CANONICAL_PHASE = {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 1}


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator i^phase * X^x0 Z^z0 (x) ... .

    Attributes:
        num_qubits: the number of qubits the string acts on.
        x_bits: tuple of 0/1 flags; bit q set means an X factor on q.
        z_bits: tuple of 0/1 flags; bit q set means a Z factor on q.
        phase: integer mod 4, overall phase i^phase.
    """

    num_qubits: int
    x_bits: Tuple[int, ...]
    z_bits: Tuple[int, ...]
    phase: int = 0

    def __post_init__(self) -> None:
        if len(self.x_bits) != self.num_qubits or len(self.z_bits) != self.num_qubits:
            raise CircuitError("PauliString bit vectors must match num_qubits")
        object.__setattr__(self, "phase", self.phase % 4)

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        zeros = (0,) * num_qubits
        return cls(num_qubits, zeros, zeros, 0)

    @classmethod
    def from_label(cls, label: str, phase: int = 0) -> "PauliString":
        """Build from a label such as ``"XIZY"`` (qubit 0 leftmost)."""
        x_bits: List[int] = []
        z_bits: List[int] = []
        total_phase = phase
        for char in label:
            try:
                x, z = _SINGLE_INV[char.upper()]
            except KeyError:
                raise CircuitError(f"invalid Pauli label character {char!r}")
            x_bits.append(x)
            z_bits.append(z)
            total_phase += _CANONICAL_PHASE[(x, z)]
        return cls(len(label), tuple(x_bits), tuple(z_bits), total_phase)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, kind: str,
               phase: int = 0) -> "PauliString":
        """A single-qubit Pauli ``kind`` in {'X','Y','Z'} on ``qubit``."""
        if not 0 <= qubit < num_qubits:
            raise CircuitError(f"qubit {qubit} out of range")
        x, z = _SINGLE_INV[kind.upper()]
        x_bits = [0] * num_qubits
        z_bits = [0] * num_qubits
        x_bits[qubit] = x
        z_bits[qubit] = z
        return cls(num_qubits, tuple(x_bits), tuple(z_bits),
                   phase + _CANONICAL_PHASE[(x, z)])

    # -- queries ---------------------------------------------------------

    def kind_at(self, qubit: int) -> str:
        """The Pauli letter ('I','X','Y','Z') acting on ``qubit``."""
        return _SINGLE[(self.x_bits[qubit], self.z_bits[qubit])]

    @property
    def weight(self) -> int:
        """Number of qubits with a non-identity factor."""
        return sum(
            1 for x, z in zip(self.x_bits, self.z_bits) if x or z
        )

    @property
    def is_identity(self) -> bool:
        """True when this is the identity up to phase."""
        return self.weight == 0

    def support(self) -> Tuple[int, ...]:
        """Qubits carrying a non-identity factor."""
        return tuple(
            q for q in range(self.num_qubits)
            if self.x_bits[q] or self.z_bits[q]
        )

    def label(self) -> str:
        """Letter representation without the phase, qubit 0 leftmost."""
        return "".join(self.kind_at(q) for q in range(self.num_qubits))

    def commutes_with(self, other: "PauliString") -> bool:
        """Whether the two operators commute."""
        if self.num_qubits != other.num_qubits:
            raise CircuitError("commutes_with: size mismatch")
        anti = 0
        for q in range(self.num_qubits):
            anti += self.x_bits[q] * other.z_bits[q]
            anti += self.z_bits[q] * other.x_bits[q]
        return anti % 2 == 0

    # -- algebra ----------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        """Operator product self @ other with exact phase tracking."""
        if self.num_qubits != other.num_qubits:
            raise CircuitError("product: size mismatch")
        x_bits: List[int] = []
        z_bits: List[int] = []
        phase = self.phase + other.phase
        for q in range(self.num_qubits):
            # Reorder X^a Z^b X^c Z^d -> X^(a+c) Z^(b+d): moving X^c
            # past Z^b contributes (-1)^(b*c) = i^(2bc).
            phase += 2 * self.z_bits[q] * other.x_bits[q]
            x_bits.append(self.x_bits[q] ^ other.x_bits[q])
            z_bits.append(self.z_bits[q] ^ other.z_bits[q])
        return PauliString(self.num_qubits, tuple(x_bits), tuple(z_bits),
                           phase)

    def restricted(self, qubits: Sequence[int]) -> "PauliString":
        """The sub-string acting on the listed qubits, in that order."""
        return PauliString(
            len(qubits),
            tuple(self.x_bits[q] for q in qubits),
            tuple(self.z_bits[q] for q in qubits),
            self.phase,
        )

    def embedded(self, num_qubits: int,
                 qubits: Sequence[int]) -> "PauliString":
        """Embed into a larger register: factor i goes to qubits[i]."""
        if len(qubits) != self.num_qubits:
            raise CircuitError("embedded: qubit list size mismatch")
        x_bits = [0] * num_qubits
        z_bits = [0] * num_qubits
        for local, target in enumerate(qubits):
            x_bits[target] = self.x_bits[local]
            z_bits[target] = self.z_bits[local]
        return PauliString(num_qubits, tuple(x_bits), tuple(z_bits),
                           self.phase)

    def with_phase(self, phase: int) -> "PauliString":
        return PauliString(self.num_qubits, self.x_bits, self.z_bits, phase)

    def strip_phase(self) -> "PauliString":
        """The same operator with phase reset to the canonical i^k of
        its X/Z decomposition (used when only the error pattern, not
        its sign, matters)."""
        phase = sum(
            _CANONICAL_PHASE[(x, z)]
            for x, z in zip(self.x_bits, self.z_bits)
        )
        return PauliString(self.num_qubits, self.x_bits, self.z_bits, phase)

    def matrix(self):
        """Dense matrix (for small n only); imports numpy lazily."""
        import numpy as np

        from repro.circuits import gates

        result = np.array([[1.0 + 0j]])
        for q in range(self.num_qubits):
            result = np.kron(result, gates.PAULI_GATES[self.kind_at(q)].matrix)
        return (1j**self.phase_offset()) * result

    def phase_offset(self) -> int:
        """Phase exponent relative to the tensor product of Y/X/Z
        letter matrices (the letters already include Y's i)."""
        canonical = sum(
            _CANONICAL_PHASE[(x, z)]
            for x, z in zip(self.x_bits, self.z_bits)
        )
        return (self.phase - canonical) % 4

    def __repr__(self) -> str:
        prefix = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase_offset()]
        return f"{prefix}{self.label()}"


def iter_single_qubit_paulis(num_qubits: int) -> Iterator[PauliString]:
    """Yield every weight-1 Pauli on a register (X, Y, Z per qubit)."""
    for qubit in range(num_qubits):
        for kind in "XYZ":
            yield PauliString.single(num_qubits, qubit, kind)


def pauli_basis(num_qubits: int) -> Iterator[PauliString]:
    """Yield all 4**n Pauli strings (identity first)."""
    letters = "IXZY"
    total = 4**num_qubits
    for index in range(total):
        label = []
        value = index
        for _ in range(num_qubits):
            label.append(letters[value % 4])
            value //= 4
        yield PauliString.from_label("".join(label))
