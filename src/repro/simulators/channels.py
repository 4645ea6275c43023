"""Quantum noise channels in Kraus form.

The paper's error model charges a probability p of failure "per gate,
per input bit, and per delay line"; each failure is modelled here as a
Pauli channel.  Channels are used two ways:

* exactly, by the :class:`~repro.simulators.density_matrix.
  DensityMatrix` simulator on small systems;
* stochastically, by the fault-injection engine in
  :mod:`repro.noise.injection`, which samples one Kraus/Pauli term per
  fault location (the standard Monte-Carlo unravelling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.circuits.pauli import PauliString
from repro.exceptions import SimulationError

_ATOL = 1e-8


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by Kraus operators on ``num_qubits`` qubits."""

    name: str
    num_qubits: int
    operators: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        dim = 2**self.num_qubits
        total = np.zeros((dim, dim), dtype=np.complex128)
        frozen: List[np.ndarray] = []
        for op in self.operators:
            op = np.asarray(op, dtype=np.complex128)
            if op.shape != (dim, dim):
                raise SimulationError(
                    f"channel {self.name}: Kraus operator shape {op.shape} "
                    f"does not match {self.num_qubits} qubits"
                )
            total += op.conj().T @ op
            op.setflags(write=False)
            frozen.append(op)
        if not np.allclose(total, np.eye(dim), atol=1e-6):
            raise SimulationError(
                f"channel {self.name}: Kraus operators do not satisfy the "
                "completeness relation"
            )
        object.__setattr__(self, "operators", tuple(frozen))


@dataclass(frozen=True)
class PauliChannel:
    """A stochastic Pauli channel: apply Pauli P_k with probability p_k.

    Attributes:
        name: display name.
        num_qubits: arity.
        terms: list of (probability, pauli-label) pairs; an implicit
            identity term absorbs the remaining probability mass.
    """

    name: str
    num_qubits: int
    terms: Tuple[Tuple[float, str], ...]

    def __post_init__(self) -> None:
        total = 0.0
        for probability, label in self.terms:
            if probability < -_ATOL or probability > 1 + _ATOL:
                raise SimulationError(
                    f"channel {self.name}: invalid probability {probability}"
                )
            if len(label) != self.num_qubits:
                raise SimulationError(
                    f"channel {self.name}: label {label!r} has wrong length"
                )
            total += probability
        if total > 1 + 1e-6:
            raise SimulationError(
                f"channel {self.name}: probabilities sum to {total} > 1"
            )

    @property
    def identity_probability(self) -> float:
        return max(0.0, 1.0 - sum(p for p, _ in self.terms))

    def sample(self, rng: np.random.Generator) -> Optional[str]:
        """Draw one Pauli label, or None for the identity outcome."""
        draw = rng.random()
        accumulated = 0.0
        for probability, label in self.terms:
            accumulated += probability
            if draw < accumulated:
                return label
        return None

    def to_kraus(self) -> KrausChannel:
        """Exact Kraus form of the stochastic Pauli channel."""
        operators: List[np.ndarray] = []
        identity = self.identity_probability
        dim = 2**self.num_qubits
        if identity > _ATOL:
            operators.append(math.sqrt(identity) * np.eye(dim))
        for probability, label in self.terms:
            if probability <= _ATOL:
                continue
            matrix = PauliString.from_label(label).matrix()
            operators.append(math.sqrt(probability) * matrix)
        return KrausChannel(self.name, self.num_qubits, tuple(operators))


def depolarizing(p: float, num_qubits: int = 1) -> PauliChannel:
    """Uniform depolarizing channel of strength p.

    With probability p one of the 4^n - 1 non-identity Paulis is
    applied, each equally likely.  This is the error model used by all
    the paper-style threshold estimates in :mod:`repro.analysis`.
    """
    _check_probability(p)
    labels = _nonidentity_labels(num_qubits)
    share = p / len(labels)
    return PauliChannel(
        f"depolarizing({p})", num_qubits,
        tuple((share, label) for label in labels),
    )


def bit_flip(p: float) -> PauliChannel:
    """X with probability p — the only error a repetition code fights."""
    _check_probability(p)
    return PauliChannel(f"bit_flip({p})", 1, ((p, "X"),))


def phase_flip(p: float) -> PauliChannel:
    """Z with probability p — harmless on the paper's classical ancilla."""
    _check_probability(p)
    return PauliChannel(f"phase_flip({p})", 1, ((p, "Z"),))


def dephasing(p: float) -> KrausChannel:
    """Full dephasing interpolation: rho -> (1-p) rho + p diag(rho).

    At p = 1 this is the complete phase-randomisation the paper invokes
    for "fully-quantum teleportation", where control qubits dephase
    before being used.
    """
    _check_probability(p)
    zero = np.array([[1, 0], [0, 0]], dtype=np.complex128)
    one = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    operators = (
        math.sqrt(1 - p) * np.eye(2),
        math.sqrt(p) * zero,
        math.sqrt(p) * one,
    )
    return KrausChannel(f"dephasing({p})", 1, operators)


def _nonidentity_labels(num_qubits: int) -> List[str]:
    letters = "IXYZ"
    labels: List[str] = []
    for index in range(4**num_qubits):
        label = []
        value = index
        for _ in range(num_qubits):
            label.append(letters[value % 4])
            value //= 4
        text = "".join(label)
        if text.strip("I"):
            labels.append(text)
    return labels


def _check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"probability {p} outside [0, 1]")
