"""The Steane [[7, 1, 3]] code.

The code every construction in the paper is illustrated on: CSS of the
[7,4,3] Hamming code.  It corrects one arbitrary error per block
(k = 1 in the paper's counting), its bitwise H / sigma_z / CNOT realise
the logical gates, and measuring all seven qubits yields a Hamming
codeword whose corrected parity is the logical value (Sec. 4.1).
"""

from __future__ import annotations


from repro.codes.classical.hamming import HammingCode
from repro.codes.quantum.css import CssCode


class SteaneCode(CssCode):
    """Singleton-style wrapper: ``SteaneCode()`` is cheap to re-create."""

    def __init__(self) -> None:
        super().__init__(HammingCode(), name="steane")

    @property
    def hamming(self) -> HammingCode:
        """The underlying Hamming code (typed accessor)."""
        return self.classical_code  # type: ignore[return-value]
