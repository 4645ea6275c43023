"""The [7, 4, 3] Hamming code.

This is the classical backbone of the Steane quantum code: measuring
all seven qubits of a Steane codeword in the computational basis yields
a (possibly corrupted) Hamming codeword, classical correction fixes up
to one bit error, and the *parity* of the corrected word is the logical
bit (paper Sec. 4.1).  The same parity-check structure supplies the
syndrome check bits that protect the N1 circuit of Fig. 1.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.codes.classical.linear import LinearCode
from repro.exceptions import CodeError

#: Parity-check matrix whose column j (1-based) is the binary
#: representation of j — the classic Hamming arrangement, so a nonzero
#: syndrome *is* the (1-based) position of the flipped bit.
HAMMING_PARITY_CHECK = np.array(
    [
        [0, 0, 0, 1, 1, 1, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 1],
    ],
    dtype=np.uint8,
)


class HammingCode(LinearCode):
    """The [7, 4, 3] Hamming code with syndrome-as-position decoding."""

    def __init__(self) -> None:
        super().__init__(parity_check=HAMMING_PARITY_CHECK,
                         name="hamming7_4")

    def error_position(self, word: Sequence[int]) -> int:
        """Return the 0-based flipped position, or -1 for a codeword.

        Valid for at most one bit error (the code's guarantee).
        """
        syndrome = self.syndrome(word)
        position = int(syndrome[0]) * 4 + int(syndrome[1]) * 2 + int(syndrome[2])
        return position - 1

    def correct(self, word: Sequence[int]) -> np.ndarray:
        bits = (np.asarray(word, dtype=np.uint8) % 2).copy()
        if bits.shape != (self.n,):
            raise CodeError(f"expected 7 bits, got {bits.shape}")
        position = self.error_position(bits)
        if position >= 0:
            bits[position] ^= 1
        return bits

    def corrected_parity(self, word: Sequence[int]) -> int:
        """Parity of the corrected word — the Steane logical readout.

        The paper (Sec. 4.1): after classical error correction, even
        parity means the encoded ancilla is |0>_L, odd means |1>_L.
        """
        corrected = self.correct(word)
        return int(np.sum(corrected) % 2)
