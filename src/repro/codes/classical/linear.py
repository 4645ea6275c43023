"""Generic binary linear block codes.

A :class:`LinearCode` is defined by a generator matrix G (k x n) or a
parity-check matrix H ((n-k) x n) over GF(2).  It provides encoding,
syndrome computation and maximum-likelihood (minimum-weight) decoding
via a syndrome table — everything the paper's "classical ancilla"
machinery needs: the repetition code protecting the ancilla and the
Hamming code underlying the Steane quantum code are both instances.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.codes import gf2
from repro.exceptions import CodeError, DecodingFailure


class LinearCode:
    """An [n, k, d] binary linear code."""

    def __init__(self, generator: Optional[np.ndarray] = None,
                 parity_check: Optional[np.ndarray] = None,
                 name: str = "") -> None:
        if generator is None and parity_check is None:
            raise CodeError("need a generator or a parity-check matrix")
        if generator is not None:
            self._generator = gf2.as_gf2(generator)
        else:
            self._generator = gf2.nullspace(gf2.as_gf2(parity_check))
        if parity_check is not None:
            self._parity_check = gf2.as_gf2(parity_check)
        else:
            self._parity_check = gf2.nullspace(self._generator)
        self.name = name or "linear"
        self._validate()
        self._syndrome_table: Optional[Dict[Tuple[int, ...], np.ndarray]] = None
        self._distance: Optional[int] = None

    def _validate(self) -> None:
        product = gf2.matmul(self._parity_check, self._generator.T)
        if np.any(product):
            raise CodeError(
                f"code {self.name}: generator and parity-check matrices "
                "are inconsistent (H G^T != 0)"
            )
        if gf2.rank(self._generator) != self._generator.shape[0]:
            raise CodeError(f"code {self.name}: generator rows dependent")

    # -- parameters -----------------------------------------------------

    @property
    def n(self) -> int:
        """Block length."""
        return int(self._generator.shape[1])

    @property
    def k(self) -> int:
        """Message length."""
        return int(self._generator.shape[0])

    @property
    def generator(self) -> np.ndarray:
        return self._generator.copy()

    @property
    def parity_check(self) -> np.ndarray:
        return self._parity_check.copy()

    @property
    def distance(self) -> int:
        """Minimum distance (computed by codeword enumeration)."""
        if self._distance is None:
            words = gf2.all_codewords(self._generator)
            weights = [gf2.weight(w) for w in words if gf2.weight(w) > 0]
            if not weights:
                raise CodeError(f"code {self.name} has no nonzero words")
            self._distance = min(weights)
        return self._distance

    @property
    def correctable_errors(self) -> int:
        """t = floor((d-1)/2), the guaranteed-correctable weight."""
        return (self.distance - 1) // 2

    # -- encoding / membership ------------------------------------------

    def encode(self, message: Sequence[int]) -> np.ndarray:
        """Encode a k-bit message into an n-bit codeword."""
        bits = np.asarray(message, dtype=np.uint8) % 2
        if bits.shape != (self.k,):
            raise CodeError(
                f"message length {bits.shape} does not match k={self.k}"
            )
        return gf2.matvec(self._generator.T, bits)

    def is_codeword(self, word: Sequence[int]) -> bool:
        return not np.any(self.syndrome(word))

    def codewords(self) -> np.ndarray:
        """All 2^k codewords (rows)."""
        return gf2.all_codewords(self._generator)

    def dual(self) -> "LinearCode":
        """The dual code C^perp (generator = our parity check)."""
        return LinearCode(generator=self._parity_check,
                          name=f"{self.name}_dual")

    def contains_code(self, other: "LinearCode") -> bool:
        """Whether other ⊆ self (needed by the CSS construction)."""
        for row in other.generator:
            if not gf2.row_space_contains(self._generator, row):
                return False
        return True

    # -- decoding ----------------------------------------------------------

    def syndrome(self, word: Sequence[int]) -> np.ndarray:
        """H w — zero iff ``word`` is a codeword."""
        bits = np.asarray(word, dtype=np.uint8) % 2
        if bits.shape != (self.n,):
            raise CodeError(
                f"word length {bits.shape} does not match n={self.n}"
            )
        return gf2.matvec(self._parity_check, bits)

    def correct(self, word: Sequence[int]) -> np.ndarray:
        """Return the nearest codeword (minimum-weight error decoding).

        Raises:
            DecodingFailure: when the syndrome has no coset leader of
                weight <= t (detected but uncorrectable error).
        """
        bits = np.asarray(word, dtype=np.uint8) % 2
        error = self.error_for_syndrome(self.syndrome(bits))
        return (bits ^ error).astype(np.uint8)

    def error_for_syndrome(self, syndrome: Sequence[int]) -> np.ndarray:
        """Minimum-weight error pattern matching the syndrome."""
        table = self._build_syndrome_table()
        key = tuple(int(b) for b in np.asarray(syndrome, dtype=np.uint8))
        if key not in table:
            raise DecodingFailure(
                f"code {self.name}: syndrome {key} exceeds the "
                f"correction radius t={self.correctable_errors}"
            )
        return table[key].copy()

    def decode(self, word: Sequence[int]) -> np.ndarray:
        """Correct the word and recover the k-bit message."""
        codeword = self.correct(word)
        solution = gf2.solve(self._generator.T, codeword)
        if solution is None:
            raise DecodingFailure(
                f"code {self.name}: corrected word is not in the code"
            )
        return solution

    def _build_syndrome_table(self) -> Dict[Tuple[int, ...], np.ndarray]:
        if self._syndrome_table is not None:
            return self._syndrome_table
        table: Dict[Tuple[int, ...], np.ndarray] = {}
        zero = np.zeros(self.n, dtype=np.uint8)
        table[tuple(self.syndrome(zero))] = zero
        t = self.correctable_errors
        # Breadth-first over error weights guarantees coset leaders.
        from itertools import combinations

        for weight in range(1, t + 1):
            for positions in combinations(range(self.n), weight):
                error = np.zeros(self.n, dtype=np.uint8)
                error[list(positions)] = 1
                key = tuple(int(b) for b in self.syndrome(error))
                if key not in table:
                    table[key] = error
        self._syndrome_table = table
        return table

    def __repr__(self) -> str:
        return f"LinearCode({self.name}: [{self.n},{self.k}])"
