"""The trivial [[1, 1, 1]] "code".

One physical qubit per logical qubit, no stabilizers, no protection.
Its purpose is validation at small scale: every fault-tolerant gadget
in :mod:`repro.ft` is parameterised by a :class:`~repro.codes.quantum.
css.CssCode`, and instantiating it with the trivial code collapses the
gadget to its bare logical circuit — e.g. the full measurement-free
Toffoli of Fig. 4, which needs ~45 qubits on the Steane code, needs
only ~12 on the trivial code and can be checked exactly against the
ideal Toffoli unitary.
"""

from __future__ import annotations


import numpy as np

from repro.codes.classical.linear import LinearCode
from repro.codes.quantum.css import CssCode


class TrivialCode(CssCode):
    """[[1, 1, 1]]: encode = identity, logical ops = physical ops."""

    def __init__(self) -> None:
        full_space = LinearCode(generator=np.array([[1]], dtype=np.uint8),
                                name="full1")
        super().__init__(full_space, name="trivial")
