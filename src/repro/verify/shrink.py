"""Delta-debugging shrinker for failing circuits.

A fuzzed divergence on a 40-gate circuit is evidence; a 2-gate
reproducer is a diagnosis.  :func:`shrink_circuit` reduces a failing
circuit while preserving a caller-supplied failure predicate, using
the classic ddmin schedule:

1. try removing contiguous chunks of operations, halving the chunk
   size from len/2 down to 1, restarting after every successful
   removal (the predicate is re-checked on each candidate);
2. once operation-minimal, drop qubits the remaining operations never
   touch and compact the register (divergences often depend on gate
   *types*, not on the register width they were found at).

The predicate sees a complete candidate circuit and returns True when
the failure still reproduces.  Candidates that make the predicate
*raise* are treated as not reproducing (a half-deleted circuit can be
degenerate in ways the oracle was never meant to see), which keeps
the shrinker safe to point at any property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.circuits.circuit import Circuit, Operation
from repro.exceptions import VerificationError

#: Hard cap on predicate evaluations; shrinking is best-effort beyond it.
DEFAULT_MAX_CHECKS = 2000


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    circuit: Circuit
    original_ops: int
    checks: int


def _rebuild(template: Circuit, ops: Sequence[Operation],
             num_qubits: int = -1) -> Circuit:
    circuit = Circuit(
        template.num_qubits if num_qubits < 0 else num_qubits,
        template.num_clbits,
        name=template.name,
    )
    for op in ops:
        circuit.append(op)
    return circuit


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spent(self) -> bool:
        return self.used >= self.limit


def _holds(predicate: Callable[[Circuit], bool], candidate: Circuit,
           budget: _Budget) -> bool:
    budget.used += 1
    try:
        return bool(predicate(candidate))
    except Exception:
        return False


def _compact_qubits(circuit: Circuit) -> Circuit:
    """Drop untouched qubits and renumber the rest contiguously."""
    used = sorted({q for op in circuit.operations
                   for q in op.touched_qubits})
    if not used:
        return _rebuild(circuit, [], num_qubits=1)
    if used == list(range(len(used))) \
            and len(used) == circuit.num_qubits:
        return circuit
    mapping = {old: new for new, old in enumerate(used)}
    remapped = [op.remapped(mapping) for op in circuit.operations]
    return _rebuild(circuit, remapped, num_qubits=len(used))


def shrink_circuit(circuit: Circuit,
                   predicate: Callable[[Circuit], bool],
                   max_checks: int = DEFAULT_MAX_CHECKS) -> ShrinkResult:
    """Minimise a circuit while ``predicate(circuit)`` stays True.

    Args:
        circuit: a circuit for which the predicate currently holds.
        predicate: returns True when the candidate still fails
            (raising counts as False).
        max_checks: predicate-evaluation budget.

    Returns:
        A :class:`ShrinkResult` whose circuit is 1-minimal with
        respect to single-operation removal (within budget) and has a
        compacted qubit register.

    Raises:
        VerificationError: when the predicate does not hold on the
            input (there is nothing to shrink).
    """
    budget = _Budget(max_checks)
    if not _holds(predicate, circuit, budget):
        raise VerificationError(
            "shrink_circuit: predicate does not hold on the input"
        )
    ops: List[Operation] = list(circuit.operations)
    original = len(ops)

    changed = True
    while changed and not budget.spent():
        changed = False
        chunk = max(1, len(ops) // 2)
        while chunk >= 1 and not budget.spent():
            start = 0
            while start < len(ops) and not budget.spent():
                candidate_ops = ops[:start] + ops[start + chunk:]
                if len(candidate_ops) == len(ops):
                    break
                candidate = _rebuild(circuit, candidate_ops)
                if _holds(predicate, candidate, budget):
                    ops = candidate_ops
                    changed = True
                    # Stay at this position: the next chunk slid in.
                else:
                    start += chunk
            chunk //= 2

    minimal = _rebuild(circuit, ops)
    compacted = _compact_qubits(minimal)
    if compacted.num_qubits != minimal.num_qubits \
            and _holds(predicate, compacted, budget):
        minimal = compacted
    return ShrinkResult(circuit=minimal, original_ops=original,
                        checks=budget.used)
