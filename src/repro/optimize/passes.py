"""Peephole rewrite passes over :class:`~repro.circuits.circuit.Circuit`.

Every pass is a pure function from circuit to circuit with a rewrite
count; none is trusted on its own — the :class:`~repro.optimize.
pipeline.PassPipeline` certifies each before/after pair through the
PR-2 differential oracle before the rewrite is allowed to stand.

The passes:

* :class:`CancelInversesPass` — cancel inverse pairs (H·H, S·S†,
  CNOT·CNOT, ...) that are adjacent *per qubit*: a pair separated only
  by operations on other qubits still cancels, because the per-qubit
  frontier sees through them.
* :class:`MergePhaseRunsPass` — merge runs of Z-diagonal phase gates
  (Z, S, S†, T, T†, RZ) on one qubit by exact angle addition, mapping
  π/4-multiples back to named gates; full turns are dropped.
* :class:`CommuteSinkPass` — sink single-qubit gates past
  non-overlapping operations, so each sits immediately before the
  next operation touching its qubit (a pure program-order
  canonicalisation that feeds the other peepholes).
* :class:`ReduceIdlePass` — swap *commuting* adjacent operation pairs
  when the swap strictly lowers the circuit's delay-location count.
  The ASAP schedule depends on per-qubit program order, so reordering
  commuting operations that share a qubit genuinely reschedules the
  circuit — this is the pass that shrinks the paper's delay-line
  fault locations on the hand-built gadgets.
* :class:`CompactAncillasPass` — drop qubits no operation touches and
  renumber the rest contiguously (order-preserving, so gadget
  register blocks stay contiguous).

Fault-location accounting is the optimization target throughout: the
paper charges every gate, every input bit and every idle
(moment, qubit) slot, so fewer gates and tighter schedules translate
directly into fewer Monte-Carlo fault locations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit, GateOp, Operation
from repro.circuits.equivalence import embed_operator
from repro.circuits.gates import matrices_equal_up_to_phase, sigma_z_power

#: Tolerance for the exact matrix identities the passes rely on.
_ATOL = 1e-10

#: Shared cache for pairwise commutation / inversion checks, keyed by
#: the structural pattern (gate names, parameters and the relative
#: qubit overlap), so repeated gadget sweeps pay the dense check once.
_PAIR_CACHE: Dict[Tuple, bool] = {}


def _rebuild(template: Circuit, ops: Sequence[Operation],
             num_qubits: Optional[int] = None) -> Circuit:
    circuit = Circuit(
        template.num_qubits if num_qubits is None else num_qubits,
        template.num_clbits,
        name=template.name,
    )
    for op in ops:
        circuit.append(op)
    return circuit


def _is_plain_gate(op: Operation) -> bool:
    """Unitary, unconditioned — the only ops the passes may touch."""
    return isinstance(op, GateOp) and op.condition is None


def _pair_key(kind: str, a: GateOp, b: GateOp) -> Tuple:
    union = sorted(set(a.qubits) | set(b.qubits))
    position = {qubit: index for index, qubit in enumerate(union)}
    return (
        kind,
        a.gate.name, a.gate.params,
        tuple(position[q] for q in a.qubits),
        b.gate.name, b.gate.params,
        tuple(position[q] for q in b.qubits),
    )


def _embedded_pair(a: GateOp, b: GateOp) -> Tuple[np.ndarray, np.ndarray]:
    union = sorted(set(a.qubits) | set(b.qubits))
    position = {qubit: index for index, qubit in enumerate(union)}
    width = len(union)
    return (
        embed_operator(a.gate.matrix,
                       [position[q] for q in a.qubits], width),
        embed_operator(b.gate.matrix,
                       [position[q] for q in b.qubits], width),
    )


def ops_commute(a: Operation, b: Operation) -> bool:
    """Whether two operations may be reordered without changing the
    circuit's unitary.

    Disjoint-qubit gates always commute; qubit-sharing gates commute
    iff their embedded matrices do (checked densely on the ≤ 6-qubit
    union, memoised by structural pattern).  Measurements, resets and
    classically conditioned gates never commute with anything here —
    they are reorder barriers.
    """
    if not (_is_plain_gate(a) and _is_plain_gate(b)):
        return False
    if not set(a.qubits) & set(b.qubits):
        return True
    key = _pair_key("commute", a, b)
    cached = _PAIR_CACHE.get(key)
    if cached is None:
        first, second = _embedded_pair(a, b)
        cached = bool(np.allclose(first @ second, second @ first,
                                  atol=_ATOL))
        _PAIR_CACHE[key] = cached
    return cached


def _ops_cancel(a: GateOp, b: GateOp) -> bool:
    """Whether applying ``a`` then ``b`` is the identity up to phase."""
    if set(a.qubits) != set(b.qubits):
        return False
    key = _pair_key("cancel", a, b)
    cached = _PAIR_CACHE.get(key)
    if cached is None:
        first, second = _embedded_pair(a, b)
        product = second @ first
        cached = matrices_equal_up_to_phase(
            product, np.eye(product.shape[0], dtype=np.complex128)
        )
        _PAIR_CACHE[key] = cached
    return cached


@dataclass
class PassResult:
    """One pass application: the rewritten circuit plus accounting."""

    circuit: Circuit
    rewrites: int
    #: old qubit -> new qubit, present only when the pass renumbered
    #: the register (:class:`CompactAncillasPass`).
    qubit_map: Optional[Dict[int, int]] = None


class Pass:
    """Base class: a named, deterministic circuit rewrite."""

    name: str = "pass"
    #: Whether the pass preserves qubit indices and register width
    #: (required for the engine's gadget pipeline, where fault
    #: locations and register maps reference original indices).
    preserves_qubits: bool = True

    def run(self, circuit: Circuit) -> PassResult:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class CancelInversesPass(Pass):
    """Cancel per-qubit-adjacent inverse pairs (H·H, S·S†, CNOT·CNOT).

    Walks the circuit keeping, per qubit, a stack of emitted operation
    indices.  A new gate cancels against the *most recent* operation
    touching any of its qubits when that operation covers exactly the
    same qubit set and the two compose to the identity (up to global
    phase).  Cancelling pops the stacks, so cascades (X·H·H·X) resolve
    in one sweep.
    """

    name = "cancel_inverses"

    def run(self, circuit: Circuit) -> PassResult:
        out: List[Optional[Operation]] = []
        frontier: List[List[int]] = [[] for _ in
                                     range(circuit.num_qubits)]
        cancelled = 0
        for op in circuit.operations:
            if _is_plain_gate(op):
                last = max(
                    (frontier[q][-1] for q in op.qubits if frontier[q]),
                    default=-1,
                )
                if last >= 0:
                    prev = out[last]
                    if (isinstance(prev, GateOp)
                            and set(prev.qubits) == set(op.qubits)
                            and _ops_cancel(prev, op)):
                        out[last] = None
                        for q in prev.qubits:
                            frontier[q].pop()
                        cancelled += 1
                        continue
            index = len(out)
            out.append(op)
            for q in op.touched_qubits:
                frontier[q].append(index)
        kept = [op for op in out if op is not None]
        return PassResult(_rebuild(circuit, kept), cancelled)


def _z_diagonal_angle(op: Operation) -> Optional[float]:
    """The θ of a single-qubit diag(1, e^{iθ}) gate, else None."""
    if not _is_plain_gate(op) or op.gate.num_qubits != 1:
        return None
    matrix = op.gate.matrix
    if abs(matrix[0, 1]) > _ATOL or abs(matrix[1, 0]) > _ATOL:
        return None
    if abs(matrix[0, 0] - 1.0) > _ATOL:
        return None
    return float(cmath.phase(matrix[1, 1]))


class MergePhaseRunsPass(Pass):
    """Merge per-qubit runs of Z-diagonal phase gates exactly.

    Z, S, S†, T, T† and RZ(θ) all share the form diag(1, e^{iθ}), so a
    run on one qubit merges by angle addition.  Merged angles that are
    multiples of π/4 map back to the named paper gates via
    :func:`repro.circuits.gates.sigma_z_power`; a full turn drops the
    run entirely.  Runs are detected per qubit (separated only by
    operations on other qubits), mirroring the cancel pass.
    """

    name = "merge_phase_runs"

    def run(self, circuit: Circuit) -> PassResult:
        out: List[Optional[Operation]] = []
        last_touch: List[int] = [-1] * circuit.num_qubits
        merges = 0
        for op in circuit.operations:
            angle = _z_diagonal_angle(op)
            if angle is not None:
                qubit = op.qubits[0]
                last = last_touch[qubit]
                prev = out[last] if last >= 0 else None
                prev_angle = (_z_diagonal_angle(prev)
                              if prev is not None else None)
                if prev_angle is not None \
                        and prev.qubits == op.qubits:
                    merged = math.remainder(prev_angle + angle,
                                            2.0 * math.pi)
                    merges += 1
                    if abs(merged) < _ATOL:
                        out[last] = None
                        last_touch[qubit] = self._previous_touch(
                            out, qubit, last)
                        continue
                    out[last] = GateOp(
                        sigma_z_power(merged / math.pi),
                        op.qubits, tag=op.tag,
                    )
                    continue
            index = len(out)
            out.append(op)
            for q in op.touched_qubits:
                last_touch[q] = index
        kept = [op for op in out if op is not None]
        return PassResult(_rebuild(circuit, kept), merges)

    @staticmethod
    def _previous_touch(out: List[Optional[Operation]], qubit: int,
                        before: int) -> int:
        for index in range(before - 1, -1, -1):
            op = out[index]
            if op is not None and qubit in op.touched_qubits:
                return index
        return -1


class CommuteSinkPass(Pass):
    """Sink single-qubit gates past non-overlapping operations.

    Each unconditioned single-qubit gate floats forward until the next
    operation touching its qubit, so late Paulis and phase gates sit
    directly against whatever consumes them.  Only disjoint-qubit
    swaps are performed (they trivially commute and leave the ASAP
    schedule untouched), making this a pure canonicalisation that
    exposes adjacency to the cancel and merge passes.
    """

    name = "commute_sink"

    def run(self, circuit: Circuit) -> PassResult:
        out: List[Operation] = []
        floating: List[Tuple[int, Operation]] = []  # (orig index, op)
        moved = 0

        def flush(touching: Optional[Sequence[int]]) -> None:
            nonlocal moved
            if not floating:
                return
            kept: List[Tuple[int, Operation]] = []
            touched = None if touching is None else set(touching)
            for orig, pending in floating:
                if touched is None \
                        or pending.qubits[0] in touched:
                    if len(out) != orig:
                        moved += 1
                    out.append(pending)
                else:
                    kept.append((orig, pending))
            floating[:] = kept

        for index, op in enumerate(circuit.operations):
            if _is_plain_gate(op) and op.gate.num_qubits == 1:
                floating.append((index, op))
                continue
            flush(op.touched_qubits)
            out.append(op)
        flush(None)
        return PassResult(_rebuild(circuit, out), moved)


class ReduceIdlePass(Pass):
    """Reschedule commuting operations to cut delay-line locations.

    The ASAP scheduler serialises operations sharing a qubit in
    program order, so swapping an adjacent *commuting* pair that
    shares a qubit changes the schedule — e.g. ordering a syndrome
    bit's extraction CNOTs slowest-control-first collapses the window
    in which the bit sits idle waiting for the busiest data qubit.
    This pass hill-climbs adjacent commuting swaps, accepting only
    strict reductions of :meth:`Circuit.idle_locations`, until a sweep
    finds no improvement (or ``max_sweeps``).  Each accepted swap
    exchanges two verified-commuting gates, so the circuit unitary is
    unchanged *exactly*; only the paper's delay-location accounting
    moves.
    """

    name = "reduce_idle"

    def __init__(self, max_sweeps: int = 50) -> None:
        self.max_sweeps = max_sweeps

    def run(self, circuit: Circuit) -> PassResult:
        ops = list(circuit.operations)
        if len(ops) < 2:
            return PassResult(circuit.copy(), 0)
        best = self._idle_count(ops, circuit)
        swaps = 0
        for _ in range(self.max_sweeps):
            improved = False
            for i in range(len(ops) - 1):
                a, b = ops[i], ops[i + 1]
                # Disjoint swaps cannot change the schedule; skip the
                # rebuild instead of evaluating a guaranteed no-op.
                if not set(a.touched_qubits) & set(b.touched_qubits):
                    continue
                if not ops_commute(a, b):
                    continue
                ops[i], ops[i + 1] = b, a
                candidate = self._idle_count(ops, circuit)
                if candidate < best:
                    best = candidate
                    swaps += 1
                    improved = True
                else:
                    ops[i], ops[i + 1] = a, b
            if not improved:
                break
        return PassResult(_rebuild(circuit, ops), swaps)

    @staticmethod
    def _idle_count(ops: Sequence[Operation], template: Circuit) -> int:
        # Direct _ops injection skips per-op validation: the ops came
        # out of a validated circuit and only their order changed, and
        # this runs once per candidate swap in the hill-climb.
        probe = Circuit(template.num_qubits, template.num_clbits)
        probe._ops = list(ops)
        return len(probe.idle_locations())


class CompactAncillasPass(Pass):
    """Drop untouched qubits and renumber the rest contiguously.

    The renumbering is order-preserving (old index order is kept), so
    contiguous register blocks stay contiguous — but the register
    width changes, which is why the engine's gadget pipeline excludes
    this pass and it serves generic circuits (shrunk reproducers,
    imported workloads) instead.
    """

    name = "compact_ancillas"
    preserves_qubits = False

    def run(self, circuit: Circuit) -> PassResult:
        used = sorted({q for op in circuit.operations
                       for q in op.touched_qubits})
        if len(used) == circuit.num_qubits:
            return PassResult(circuit.copy(), 0)
        if not used:
            compacted = _rebuild(circuit, [], num_qubits=1)
            return PassResult(compacted,
                              max(0, circuit.num_qubits - 1),
                              qubit_map={})
        mapping = {old: new for new, old in enumerate(used)}
        remapped = [op.remapped(mapping) for op in circuit.operations]
        compacted = _rebuild(circuit, remapped, num_qubits=len(used))
        return PassResult(compacted, circuit.num_qubits - len(used),
                          qubit_map=mapping)


#: The shipped pass set, in canonical application order.
DEFAULT_PASSES = (
    CancelInversesPass,
    MergePhaseRunsPass,
    CommuteSinkPass,
    ReduceIdlePass,
    CompactAncillasPass,
)
