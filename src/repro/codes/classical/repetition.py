"""The classical repetition code and majority voting.

The repetition code is the paper's "classical ancilla": logical 0 is
|0...0>, logical 1 is |1...1>.  It corrects floor((n-1)/2) bit errors
by majority vote and corrects *no* phase errors — which is fine,
because (Sec. 4.2) phase errors cannot propagate from a control bit to
the quantum data, so a block used only as the control of bitwise
controlled-U operations never needs phase protection.

The paper's efficiency note (Sec. 4.2) is also encoded here: to protect
a quantum code that corrects k errors it suffices to use 2k + 1
repetitions (``RepetitionCode.for_correctable(k)``), e.g. 3 repetitions
for the Steane code, before fanning the majority out to n bits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.codes.classical.linear import LinearCode
from repro.exceptions import CodeError


class RepetitionCode(LinearCode):
    """The [n, 1, n] repetition code with majority-vote decoding."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise CodeError("repetition code needs n >= 1")
        generator = np.ones((1, n), dtype=np.uint8)
        # Parity check: adjacent-pair parities x_i + x_{i+1} = 0.
        if n > 1:
            parity = np.zeros((n - 1, n), dtype=np.uint8)
            for row in range(n - 1):
                parity[row, row] = 1
                parity[row, row + 1] = 1
        else:
            parity = np.zeros((0, 1), dtype=np.uint8)
        super().__init__(generator=generator, parity_check=parity,
                         name=f"repetition{n}")

    @classmethod
    def for_correctable(cls, k: int) -> "RepetitionCode":
        """Smallest repetition code correcting k bit errors: n = 2k+1.

        This is the paper's repetition-count optimisation: matching the
        classical ancilla's correction radius to the quantum code's k
        keeps the gadget small and the threshold high.
        """
        if k < 0:
            raise CodeError("k must be non-negative")
        return cls(2 * k + 1)

    def majority(self, bits: Sequence[int]) -> int:
        """Majority vote over the bits (ties impossible for odd n)."""
        bits = np.asarray(bits, dtype=np.uint8) % 2
        if bits.shape != (self.n,):
            raise CodeError(
                f"expected {self.n} bits, got {bits.shape}"
            )
        ones = int(np.sum(bits))
        if 2 * ones == self.n:
            raise CodeError(
                f"majority undefined: {ones} ones among {self.n} bits"
            )
        return int(2 * ones > self.n)

    def correct(self, word: Sequence[int]) -> np.ndarray:
        """Majority-vote correction (overrides the syndrome table)."""
        value = self.majority(word)
        return np.full(self.n, value, dtype=np.uint8)

    def decode(self, word: Sequence[int]) -> np.ndarray:
        return np.array([self.majority(word)], dtype=np.uint8)
