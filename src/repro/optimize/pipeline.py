"""The gadget optimizer: two passes to a fixed point, every rewrite
certified.

:func:`optimize_circuit` applies :class:`~repro.optimize.passes.
CommuteSinkPass` then :class:`~repro.optimize.passes.ReduceIdlePass`
round after round until a full round changes nothing (or
:data:`MAX_ROUNDS` is hit).  Every pass application that rewrote
anything is pushed through :func:`repro.optimize.certify.
certify_rewrite` — exact pair equivalence, the cross-backend
differential oracle and a post-rewrite :func:`repro.verify.
check_circuit` — before the next pass sees it, so a wrong rewrite is
stopped (with a shrunk reproducer) at the first circuit it breaks
instead of poisoning a threshold estimate.  Results are memoised by
circuit structure, so each shape pays the hill-climb and the
certification once per process.

:func:`optimize_gadget` rewrites a gadget's circuit in place of a new
:class:`~repro.ft.gadget.Gadget` with identical name and registers —
identical *identity* — so the only trace optimization leaves in a
checkpoint fingerprint is the :data:`MARKER` the engine adds:
resuming an unoptimized journal with optimization on (or vice versa)
is a fingerprint mismatch, never a silent mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.circuits.circuit import Circuit, GateOp, MeasureOp, ResetOp
from repro.ft.gadget import Gadget
from repro.optimize.certify import certify_rewrite
from repro.optimize.passes import CommuteSinkPass, Pass, ReduceIdlePass

#: The optimizer's checkpoint-fingerprint marker.  It names the
#: gadget -> circuit map as first shipped, when two more peepholes
#: (inverse cancellation, phase-run merging) ran ahead of the two
#: passes below; they were removed because they never rewrote a
#: shipped gadget, and the optimized circuits are unchanged, so old
#: optimized journals and cached job results still resume.  Any
#: change to an optimized gadget circuit must change this string.
MARKER = "cancel_inverses+merge_phase_runs+commute_sink+reduce_idle@v1"

#: The passes, in application order.
PASSES: Tuple[Pass, ...] = (CommuteSinkPass(), ReduceIdlePass())

#: Bound on full rounds; the shipped gadgets converge in two.
MAX_ROUNDS = 8


@dataclass
class PipelineResult:
    """One optimizer run: the final circuit plus full accounting."""

    circuit: Circuit
    #: pass name -> cumulative rewrites across all rounds.
    rewrites: Dict[str, int]
    rounds: int
    #: True when the last round performed zero rewrites (a genuine
    #: fixed point) rather than stopping at :data:`MAX_ROUNDS`.
    converged: bool
    #: pass applications that rewrote anything, each certified.
    certified_rewrites: int = 0

    @property
    def total_rewrites(self) -> int:
        return sum(self.rewrites.values())


def _fixed_point(circuit: Circuit,
                 passes: Sequence[Pass] = PASSES) -> PipelineResult:
    """Apply ``passes`` round after round, certifying each rewrite.

    A certification failure raises :class:`~repro.exceptions.
    OptimizationError` with a shrunk reproducer — the uncertified
    circuit is never returned.
    """
    current = circuit
    rewrites = {pass_.name: 0 for pass_ in passes}
    certified = 0
    rounds = 0
    converged = False
    while rounds < MAX_ROUNDS and not converged:
        rounds += 1
        converged = True
        for pass_ in passes:
            result = pass_.run(current)
            if result.rewrites == 0:
                continue
            converged = False
            rewrites[pass_.name] += result.rewrites
            certify_rewrite(current, result.circuit, pass_.name,
                            pass_=pass_)
            certified += 1
            current = result.circuit
    return PipelineResult(circuit=current, rewrites=rewrites,
                          rounds=rounds, converged=converged,
                          certified_rewrites=certified)


def _circuit_key(circuit: Circuit) -> Tuple:
    """Structural identity of a circuit, for the optimization cache."""
    ops: List[Tuple] = []
    for op in circuit.operations:
        if isinstance(op, GateOp):
            condition = (None if op.condition is None else
                         (op.condition.bits, op.condition.value))
            ops.append(("g", op.gate.name, op.gate.params, op.qubits,
                        condition, op.tag))
        elif isinstance(op, MeasureOp):
            ops.append(("m", op.qubit, op.clbit, op.tag))
        elif isinstance(op, ResetOp):
            ops.append(("r", op.qubit, op.tag))
        else:  # pragma: no cover - no other op kinds exist today
            ops.append(("?", repr(op)))
    return (circuit.num_qubits, circuit.num_clbits, tuple(ops))


#: circuit key -> PipelineResult.  Gadget constructors are re-invoked
#: constantly across tests and sweeps; the hill-climb and the
#: certification are deterministic, so pay them once per shape.
_OPTIMIZE_CACHE: Dict[Tuple, PipelineResult] = {}


def optimize_circuit(circuit: Circuit) -> PipelineResult:
    """Optimize one circuit; results are memoised by structure."""
    key = _circuit_key(circuit)
    cached = _OPTIMIZE_CACHE.get(key)
    if cached is None:
        cached = _OPTIMIZE_CACHE[key] = _fixed_point(circuit)
    return cached


def clear_optimize_cache() -> None:
    """Drop all memoised optimizer results (test isolation hook)."""
    _OPTIMIZE_CACHE.clear()


def optimize_gadget(gadget: Gadget) -> Gadget:
    """Return the gadget with its circuit optimized, identity intact.

    The result keeps the gadget's name, registers, block lists and
    notes — only the circuit changes, and only by qubit-preserving
    passes, so every consumer that addresses the gadget by register
    (initial states, fault-location enumeration, evaluators) keeps
    working unchanged.
    """
    return Gadget(
        name=gadget.name,
        circuit=optimize_circuit(gadget.circuit).circuit,
        registers=gadget.registers,
        data_blocks=gadget.data_blocks,
        output_blocks=gadget.output_blocks,
        notes=gadget.notes,
    )
