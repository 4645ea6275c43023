"""Stabilizer formalism utilities.

A stabilizer code is defined by commuting Pauli generators; an error E
is detected by generator S iff E and S anticommute, and the vector of
those anticommutation bits is the error syndrome.  These helpers serve
the CSS code class and the analysis module's "is this residual error
correctable?" checks.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.circuits.pauli import PauliString
from repro.exceptions import CodeError


def check_commuting_generators(generators: Sequence[PauliString]) -> None:
    """Raise unless every pair of generators commutes."""
    for i, first in enumerate(generators):
        for second in generators[i + 1:]:
            if not first.commutes_with(second):
                raise CodeError(
                    f"stabilizer generators {first!r} and {second!r} "
                    "anticommute"
                )


def syndrome_of(error: PauliString,
                generators: Sequence[PauliString]) -> Tuple[int, ...]:
    """Anticommutation bit per generator: the error syndrome."""
    return tuple(
        0 if error.commutes_with(generator) else 1
        for generator in generators
    )


def in_stabilizer_group(pauli: PauliString,
                        generators: Sequence[PauliString]) -> bool:
    """Whether ``pauli`` (up to phase) is a product of the generators.

    Works in the symplectic (binary) picture: stack the generators'
    (x|z) rows and test membership of pauli's (x|z) vector in their
    GF(2) row space.
    """
    from repro.codes import gf2

    if not generators:
        return pauli.is_identity
    rows = np.array(
        [list(g.x_bits) + list(g.z_bits) for g in generators],
        dtype=np.uint8,
    )
    target = np.array(list(pauli.x_bits) + list(pauli.z_bits),
                      dtype=np.uint8)
    return gf2.row_space_contains(rows, target)
