"""Reversible classical logic sub-circuits.

The paper's constructions repeatedly need small reversible classical
computations performed coherently: OR of syndrome bits into the raw
parity bit (Fig. 1's correction box), majority votes over repeated
ancilla bits, and AND of classical ancilla blocks (the Toffoli gadget's
m1*m2 correction).  These run on "classical" qubits — repetition-basis
blocks or single check bits — where only bit errors matter, which is
exactly why plain NOT/CNOT/Toffoli circuits suffice (paper Sec. 5).

Fault-structure note: every function here writes each output bit with
its own gates from the shared inputs, never by fanning out a single
computed bit.  A fan-out of one freshly computed bit would be a single
point of failure (one fault corrupting every copy); recomputing per
output keeps single faults confined to single output bits.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.exceptions import FaultToleranceError


def or_into(circuit: Circuit, sources: Sequence[int], target: int,
            scratch: int) -> None:
    """target ^= OR(sources) for up to three sources.

    Uses the inclusion-exclusion expansion
    OR(a,b,c) = a + b + c + ab + ac + bc + abc  (mod 2),
    with one scratch bit for the triple product (computed and exactly
    uncomputed, so the scratch is reusable and always returns to its
    input value even in the presence of source-bit errors).
    """
    sources = list(sources)
    if not 1 <= len(sources) <= 3:
        raise FaultToleranceError(
            f"or_into supports 1..3 sources, got {len(sources)}"
        )
    if scratch in sources or scratch == target:
        raise FaultToleranceError("scratch bit overlaps operands")
    for source in sources:
        circuit.add_gate(gates.CNOT, source, target)
    for first, second in combinations(sources, 2):
        circuit.add_gate(gates.TOFFOLI, first, second, target)
    if len(sources) == 3:
        a, b, c = sources
        circuit.add_gate(gates.TOFFOLI, a, b, scratch)
        circuit.add_gate(gates.TOFFOLI, scratch, c, target)
        circuit.add_gate(gates.TOFFOLI, a, b, scratch)


def majority_into(circuit: Circuit, sources: Sequence[int],
                  target: int) -> None:
    """target ^= MAJ(sources) for one or three sources.

    MAJ(a,b,c) = ab + bc + ac (mod 2): three Toffolis, no scratch.
    The r = 1 case (trivial code, k = 0) degenerates to a plain copy.
    Larger odd repetition counts would need higher-degree symmetric
    polynomials; the paper's 2k+1 prescription with the shipped codes
    (k <= 1) never requires them.
    """
    sources = list(sources)
    if target in sources:
        raise FaultToleranceError("majority target overlaps sources")
    if len(sources) == 1:
        circuit.add_gate(gates.CNOT, sources[0], target)
        return
    if len(sources) == 3:
        for first, second in combinations(sources, 2):
            circuit.add_gate(gates.TOFFOLI, first, second, target)
        return
    raise FaultToleranceError(
        f"majority_into supports 1 or 3 sources, got {len(sources)}"
    )


def and_blocks_into(circuit: Circuit, block_a: Sequence[int],
                    block_b: Sequence[int],
                    block_out: Sequence[int]) -> None:
    """Bitwise AND of two classical blocks into a third (Toffolis).

    On repetition-basis inputs |m1...m1>, |m2...m2> this computes the
    repetition encoding of m1 AND m2; a single faulty Toffoli corrupts
    exactly one output position (paper Sec. 5: classical reversible
    computation carried out directly on the repetition code).
    """
    if not len(block_a) == len(block_b) == len(block_out):
        raise FaultToleranceError("AND blocks must have equal size")
    for a, b, out in zip(block_a, block_b, block_out):
        circuit.add_gate(gates.TOFFOLI, a, b, out)
