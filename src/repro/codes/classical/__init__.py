"""Classical binary block codes (the paper's 'classical' machinery)."""

from repro.codes.classical.hamming import HAMMING_PARITY_CHECK, HammingCode
from repro.codes.classical.linear import LinearCode
from repro.codes.classical.repetition import RepetitionCode

__all__ = [
    "HAMMING_PARITY_CHECK",
    "HammingCode",
    "LinearCode",
    "RepetitionCode",
]
