"""The CSS code construction (k = 1 logical qubit).

A self-dual-containing classical code C (C^perp ⊆ C) with
dim C - dim C^perp = 1 yields an [[n, 1]] quantum code:

* logical |0> = uniform superposition over the codewords of C^perp,
* logical |1> = the same superposition shifted by any word
  u ∈ C \\ C^perp,
* X-type and Z-type stabilizer generators both come from the rows of
  C's parity-check matrix (which generate C^perp).

The Steane code is CSS(Hamming[7,4]); the trivial [[1,1]] "code" is
CSS of the full space F_2 — it offers no protection but lets every
gadget in :mod:`repro.ft` be verified exactly on small state vectors.

Transversality facts used throughout the paper (Sec. 3) hold for any
such code with the extra property that C^perp codewords have doubly
even weight... For the codes shipped here we verify the concrete
transversal actions numerically in the test-suite rather than assuming
them: bitwise H is logical H, bitwise CNOT is logical CNOT, and bitwise
S^dagger realises logical S (the paper's note that bitwise sigma_z^{1/2}
yields the *inverse* logical gate, fixed by a bitwise sigma_z).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.circuits.pauli import PauliString
from repro.codes import gf2
from repro.codes.classical.linear import LinearCode
from repro.codes.quantum import stabilizer as stab
from repro.exceptions import CodeError, DecodingFailure
from repro.simulators.statevector import StateVector


class CssCode:
    """An [[n, 1]] CSS quantum code built from a classical code C."""

    def __init__(self, classical_code: LinearCode, name: str = "") -> None:
        self.classical_code = classical_code
        self.name = name or f"css({classical_code.name})"
        self._dual_generator = classical_code.parity_check
        if not classical_code.contains_code(
                LinearCode(generator=self._dual_generator,
                           name="dual_check")
                if self._dual_generator.shape[0] else _zero_code(classical_code.n)):
            raise CodeError(
                f"{self.name}: classical code must contain its dual "
                "(CSS self-orthogonality condition)"
            )
        if classical_code.k - self._dual_generator.shape[0] != 1:
            raise CodeError(
                f"{self.name}: dim C - dim C^perp must be 1 for one "
                "logical qubit, got "
                f"{classical_code.k - self._dual_generator.shape[0]}"
            )
        self._logical_support = self._find_logical_support()
        self._dual_words = self._enumerate_dual_words()
        self._check_stabilizers()

    # -- parameters -------------------------------------------------------

    @property
    def n(self) -> int:
        """Physical qubits per block."""
        return self.classical_code.n

    @property
    def k(self) -> int:
        """Logical qubits per block (always 1 here)."""
        return 1

    @property
    def distance(self) -> int:
        """Code distance (equals the classical distance for these CSS
        codes: the minimum weight in C \\ C^perp is bounded below by
        the classical minimum distance, and for the shipped codes they
        coincide)."""
        if self.n == 1:
            return 1
        return self.classical_code.distance

    @property
    def correctable_errors(self) -> int:
        """k in the paper's notation: guaranteed-correctable faults."""
        return (self.distance - 1) // 2

    # -- stabilizers and logicals --------------------------------------------

    def x_stabilizer_generators(self) -> List[PauliString]:
        """X^h for each parity-check row h."""
        return [
            _pauli_from_support(self.n, row, "X")
            for row in self._dual_generator
        ]

    def z_stabilizer_generators(self) -> List[PauliString]:
        """Z^h for each parity-check row h."""
        return [
            _pauli_from_support(self.n, row, "Z")
            for row in self._dual_generator
        ]

    def stabilizer_generators(self) -> List[PauliString]:
        return self.x_stabilizer_generators() + self.z_stabilizer_generators()

    @property
    def logical_support(self) -> np.ndarray:
        """Support vector u of the logical X̄ = X^u (and Z̄ = Z^u)."""
        return self._logical_support.copy()

    def logical_x(self) -> PauliString:
        return _pauli_from_support(self.n, self._logical_support, "X")

    def logical_z(self) -> PauliString:
        return _pauli_from_support(self.n, self._logical_support, "Z")

    # -- logical states ---------------------------------------------------------

    def logical_zero(self) -> StateVector:
        """|0>_L: uniform superposition over C^perp codewords."""
        return self._coset_state(np.zeros(self.n, dtype=np.uint8))

    def logical_one(self) -> StateVector:
        """|1>_L: the C^perp superposition shifted by the logical X."""
        return self._coset_state(self._logical_support)

    def logical_plus(self) -> StateVector:
        """(|0>_L + |1>_L)/sqrt(2) — superposition over all of C."""
        return self.encode_amplitudes(1.0, 1.0)

    def encode_amplitudes(self, alpha: complex, beta: complex) -> StateVector:
        """alpha |0>_L + beta |1>_L (normalised)."""
        zero = self.logical_zero().amplitudes
        one = self.logical_one().amplitudes
        return StateVector.from_amplitudes(alpha * zero + beta * one)

    def _coset_state(self, shift: np.ndarray) -> StateVector:
        amplitudes = np.zeros(2**self.n, dtype=np.complex128)
        for word in self._dual_words:
            bits = (word + shift) % 2
            index = 0
            for bit in bits:
                index = (index << 1) | int(bit)
            amplitudes[index] = 1.0
        return StateVector.from_amplitudes(amplitudes)

    # -- encoding circuit --------------------------------------------------------

    def encoding_circuit(self, data_qubit: Optional[int] = None) -> Circuit:
        """Unitary encoder: (alpha|0> + beta|1>) on the data position,
        |0> elsewhere  ->  alpha|0>_L + beta|1>_L.

        The construction is the systematic CSS encoder: fan the data
        bit out along the logical-X support, then for each X-stabilizer
        generator put its pivot qubit in |+> and fan it out along the
        generator's support.

        Args:
            data_qubit: position holding the input amplitude; defaults
                to the first position of the (pivot-cleared) logical-X
                support.
        """
        reduced_gens, pivots = gf2.rref(self._dual_generator) \
            if self._dual_generator.shape[0] else (self._dual_generator, [])
        logical = self._reduce_logical_against(reduced_gens, pivots)
        support = [int(q) for q in np.nonzero(logical)[0]]
        if not support:
            raise CodeError(f"{self.name}: empty logical support")
        if data_qubit is None:
            data_qubit = support[0]
        if data_qubit not in support:
            raise CodeError(
                f"data qubit {data_qubit} is not in the reduced logical "
                f"support {support}"
            )
        circuit = Circuit(self.n, name=f"{self.name}_encode")
        for target in support:
            if target != data_qubit:
                circuit.add_gate(gates.CNOT, data_qubit, target)
        for row_index, pivot in enumerate(pivots):
            row = reduced_gens[row_index]
            circuit.add_gate(gates.H, pivot)
            for target in np.nonzero(row)[0]:
                target = int(target)
                if target != pivot:
                    circuit.add_gate(gates.CNOT, pivot, target)
        return circuit

    def _reduce_logical_against(self, reduced_gens: np.ndarray,
                                pivots: List[int]) -> np.ndarray:
        logical = self._logical_support.copy()
        for row_index, pivot in enumerate(pivots):
            if logical[pivot]:
                logical = (logical + reduced_gens[row_index]) % 2
        if not np.any(logical):
            raise CodeError(
                f"{self.name}: logical support reduced to zero "
                "(logical operator lies in the stabilizer?)"
            )
        return logical.astype(np.uint8)

    # -- syndromes and decoding ----------------------------------------------------

    def x_error_syndrome(self, error: PauliString) -> Tuple[int, ...]:
        """Syndrome of the bit-error part (detected by Z stabilizers)."""
        return stab.syndrome_of(error, self.z_stabilizer_generators())

    def z_error_syndrome(self, error: PauliString) -> Tuple[int, ...]:
        """Syndrome of the phase-error part (detected by X stabilizers)."""
        return stab.syndrome_of(error, self.x_stabilizer_generators())

    def correction_for(self, error: PauliString) -> PauliString:
        """Minimum-weight Pauli correction for the given error.

        Raises:
            DecodingFailure: when either syndrome is outside the
                correction radius.
        """
        x_pattern = self.classical_code.error_for_syndrome(
            np.array(self.x_error_syndrome(error), dtype=np.uint8)
        )
        z_pattern = self.classical_code.error_for_syndrome(
            np.array(self.z_error_syndrome(error), dtype=np.uint8)
        )
        correction = _pauli_from_support(self.n, x_pattern, "X") * \
            _pauli_from_support(self.n, z_pattern, "Z")
        return correction.strip_phase()

    def is_correctable(self, error: PauliString) -> bool:
        """Whether applying :meth:`correction_for` restores the code
        space *and* the logical state (residual in the stabilizer)."""
        try:
            correction = self.correction_for(error)
        except DecodingFailure:
            return False
        residual = (correction * error).strip_phase()
        return stab.in_stabilizer_group(residual,
                                        self.stabilizer_generators())

    def logical_readout(self, measured_bits: Sequence[int]) -> int:
        """Decode a full Z-basis measurement of the block.

        Classical-correct the measured word with C, then the logical
        value is its overlap with the logical-Z support (paper
        Sec. 4.1: for the Steane code this is the corrected word's
        parity).
        """
        corrected = self.classical_code.correct(measured_bits)
        return int(np.dot(corrected.astype(np.int64),
                          self._logical_support.astype(np.int64)) % 2)

    # -- internals --------------------------------------------------------------

    def _find_logical_support(self) -> np.ndarray:
        for word in self.classical_code.codewords():
            if not np.any(word):
                continue
            if self._dual_generator.shape[0] == 0:
                return word.astype(np.uint8)
            if not gf2.row_space_contains(self._dual_generator, word):
                return word.astype(np.uint8)
        raise CodeError(f"{self.name}: no logical representative found")

    def _enumerate_dual_words(self) -> np.ndarray:
        if self._dual_generator.shape[0] == 0:
            return np.zeros((1, self.n), dtype=np.uint8)
        return gf2.all_codewords(self._dual_generator)

    def _check_stabilizers(self) -> None:
        stab.check_commuting_generators(self.stabilizer_generators())
        logical_x = self.logical_x()
        logical_z = self.logical_z()
        for generator in self.stabilizer_generators():
            if not generator.commutes_with(logical_x):
                raise CodeError(f"{self.name}: logical X not in normalizer")
            if not generator.commutes_with(logical_z):
                raise CodeError(f"{self.name}: logical Z not in normalizer")
        if self.n > 1 and logical_x.commutes_with(logical_z):
            raise CodeError(
                f"{self.name}: logical X and Z must anticommute"
            )

    def __repr__(self) -> str:
        return f"CssCode({self.name}: [[{self.n},1,{self.distance}]])"


def _pauli_from_support(num_qubits: int, support: Sequence[int],
                        kind: str) -> PauliString:
    label = "".join(
        kind if int(bit) else "I" for bit in np.asarray(support) % 2
    )
    if len(label) != num_qubits:
        raise CodeError("support length mismatch")
    return PauliString.from_label(label)


def _zero_code(n: int) -> LinearCode:
    return LinearCode(generator=np.zeros((0, n), dtype=np.uint8),
                      parity_check=np.eye(n, dtype=np.uint8),
                      name="zero")
