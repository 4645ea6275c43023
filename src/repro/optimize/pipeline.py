"""Fixed-point pass-pipeline driver with per-rewrite certification.

:class:`PassPipeline` applies a sequence of rewrite passes round after
round until a full round changes nothing (or ``max_rounds`` is hit),
accumulating per-pass rewrite statistics.  With ``certify=True`` every
individual pass application that rewrote anything is pushed through
:func:`repro.optimize.certify.certify_rewrite` — exact pair
equivalence, the cross-backend differential oracle and a post-rewrite
:func:`repro.verify.check_circuit` — before the next pass sees it, so
a buggy pass is stopped (with a shrunk reproducer) at the first
circuit it mis-rewrites instead of poisoning a threshold estimate.

Two canonical pipelines ship:

* :func:`default_pipeline` — all five passes, for generic circuits;
* :func:`gadget_pipeline` — the qubit-preserving subset (no ancilla
  compaction), for gadgets whose registers, fault locations and
  evaluators reference original qubit indices.

:func:`optimize_gadget` rewrites a gadget's circuit in place of a new
:class:`~repro.ft.gadget.Gadget` with identical name and registers —
identical *identity* — so the only trace optimization leaves in a
checkpoint fingerprint is the explicit ``optimizer`` marker the engine
adds: resuming an unoptimized journal with optimization on (or vice
versa) is a fingerprint mismatch, never a silent mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.circuits.circuit import Circuit, GateOp, MeasureOp, ResetOp
from repro.exceptions import AnalysisError
from repro.ft.gadget import Gadget
from repro.optimize.passes import (
    DEFAULT_PASSES,
    CancelInversesPass,
    CommuteSinkPass,
    MergePhaseRunsPass,
    Pass,
    PassResult,
    ReduceIdlePass,
)

#: Version tag baked into pipeline markers (and therefore checkpoint
#: fingerprints): bump when a pass's rewrite behaviour changes so old
#: optimized journals refuse to resume against the new optimizer.
PIPELINE_VERSION = "v1"


@dataclass
class PipelineResult:
    """One pipeline run: the final circuit plus full accounting."""

    circuit: Circuit
    #: pass name -> cumulative rewrites across all rounds.
    rewrites: Dict[str, int]
    rounds: int
    #: True when the last round performed zero rewrites (a genuine
    #: fixed point) rather than stopping at ``max_rounds``.
    converged: bool
    #: old qubit -> new qubit over all width-changing passes; None
    #: when every pass preserved the register.
    qubit_map: Optional[Dict[int, int]] = None
    #: per-pass certifications performed (certify mode only).
    certified_rewrites: int = 0

    @property
    def total_rewrites(self) -> int:
        return sum(self.rewrites.values())


def _lift(after: Circuit, qubit_map: Dict[int, int],
          template: Circuit) -> Circuit:
    """Re-embed a compacted circuit on the original register."""
    inverse = {new: old for old, new in qubit_map.items()}
    lifted = Circuit(template.num_qubits, template.num_clbits,
                     name=after.name)
    for op in after.operations:
        lifted.append(op.remapped(inverse))
    return lifted


class PassPipeline:
    """Apply rewrite passes to a fixed point, certifying each rewrite.

    Args:
        passes: pass instances (or classes, instantiated with no
            arguments) applied in order each round.
        max_rounds: bound on full rounds; the pipeline normally stops
            earlier, at the first round with zero rewrites.
        certify: run the differential certification on every pass
            application that changed the circuit.  A certification
            failure raises :class:`~repro.exceptions.
            OptimizationError` with a shrunk reproducer — the
            uncertified circuit is never returned.
        seed: probe-state seed for wide-register certification.
    """

    def __init__(self,
                 passes: Optional[Sequence[Union[Pass, type]]] = None,
                 max_rounds: int = 8,
                 certify: bool = False,
                 seed: int = 0) -> None:
        if passes is None:
            passes = DEFAULT_PASSES
        if max_rounds < 1:
            raise AnalysisError(
                f"max_rounds must be >= 1, got {max_rounds}")
        self.passes: Tuple[Pass, ...] = tuple(
            p() if isinstance(p, type) else p for p in passes
        )
        self.max_rounds = int(max_rounds)
        self.certify = bool(certify)
        self.seed = int(seed)

    @property
    def preserves_qubits(self) -> bool:
        return all(p.preserves_qubits for p in self.passes)

    @property
    def marker(self) -> str:
        """The fingerprint marker pinning this pipeline's identity."""
        names = "+".join(p.name for p in self.passes)
        return f"{names}@{PIPELINE_VERSION}"

    def run(self, circuit: Circuit) -> PipelineResult:
        current = circuit
        rewrites: Dict[str, int] = {p.name: 0 for p in self.passes}
        composed_map: Optional[Dict[int, int]] = None
        certified = 0
        rounds = 0
        converged = False
        for _ in range(self.max_rounds):
            rounds += 1
            round_rewrites = 0
            for pass_ in self.passes:
                result = pass_.run(current)
                if result.rewrites == 0:
                    continue
                round_rewrites += result.rewrites
                rewrites[pass_.name] += result.rewrites
                if self.certify:
                    self._certify(pass_, current, result)
                    certified += 1
                if result.qubit_map is not None:
                    composed_map = _compose_maps(
                        composed_map, result.qubit_map, current)
                current = result.circuit
            if round_rewrites == 0:
                converged = True
                break
        return PipelineResult(
            circuit=current,
            rewrites=rewrites,
            rounds=rounds,
            converged=converged,
            qubit_map=composed_map,
            certified_rewrites=certified,
        )

    def _certify(self, pass_: Pass, before: Circuit,
                 result: PassResult) -> None:
        from repro.optimize.certify import certify_rewrite

        after = result.circuit
        if result.qubit_map is not None:
            after = _lift(after, result.qubit_map, before)
        certify_rewrite(before, after, pass_.name, pass_=pass_,
                        seed=self.seed)

    def __repr__(self) -> str:
        return (f"PassPipeline({self.marker!r}, "
                f"max_rounds={self.max_rounds}, "
                f"certify={self.certify})")


def _compose_maps(earlier: Optional[Dict[int, int]],
                  later: Dict[int, int],
                  current: Circuit) -> Dict[int, int]:
    """Chain qubit renumberings across passes."""
    if earlier is None:
        return dict(later)
    return {old: later[mid] for old, mid in earlier.items()
            if mid in later}


def default_pipeline(certify: bool = False,
                     seed: int = 0) -> PassPipeline:
    """All five shipped passes, for generic circuits."""
    return PassPipeline(DEFAULT_PASSES, certify=certify, seed=seed)


def gadget_pipeline(certify: bool = False,
                    seed: int = 0) -> PassPipeline:
    """The qubit-preserving pass subset for gadget circuits.

    Excludes :class:`~repro.optimize.passes.CompactAncillasPass`:
    gadget registers, default fault locations and the evaluators all
    reference original qubit indices, so the register width is part of
    the gadget's contract.
    """
    return PassPipeline(
        (CancelInversesPass(), MergePhaseRunsPass(),
         CommuteSinkPass(), ReduceIdlePass()),
        certify=certify, seed=seed,
    )


def _resolve_pipeline(optimize: Union[bool, PassPipeline],
                      *, gadget: bool) -> Optional[PassPipeline]:
    """Normalise an ``optimize=`` knob value into a pipeline.

    ``False``/``None`` -> no optimization; ``True`` -> the canonical
    pipeline for the context; a :class:`PassPipeline` is used as-is
    (gadget contexts additionally require it to preserve qubits).
    """
    if optimize is False or optimize is None:
        return None
    if optimize is True:
        return gadget_pipeline() if gadget else default_pipeline()
    if not isinstance(optimize, PassPipeline):
        raise AnalysisError(
            f"optimize= expects a bool or PassPipeline, got "
            f"{type(optimize).__name__}")
    if gadget and not optimize.preserves_qubits:
        raise AnalysisError(
            "gadget optimization requires a qubit-preserving "
            "pipeline; this one contains a width-changing pass "
            f"({optimize.marker})")
    return optimize


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


#: (circuit key, pipeline marker) -> PipelineResult.  Gadget
#: constructors are re-invoked constantly across tests and sweeps;
#: the hill-climb is deterministic, so pay it once per shape.
_OPTIMIZE_CACHE: Dict[Tuple, PipelineResult] = {}


def optimize_circuit(circuit: Circuit,
                     pipeline: Optional[PassPipeline] = None,
                     *,
                     certify: bool = False,
                     use_cache: bool = True) -> PipelineResult:
    """Optimize one circuit; results are memoized by structure.

    The cache key includes the pipeline marker but *not* the certify
    flag: certification only ever rejects (by raising), so a pair that
    certified clean is the same pair an uncertified run produces.
    Cached results are only reused for ``certify=False`` requests or
    for pairs that already certified clean.
    """
    if pipeline is None:
        pipeline = default_pipeline(certify=certify)
    elif certify and not pipeline.certify:
        pipeline = PassPipeline(pipeline.passes,
                                max_rounds=pipeline.max_rounds,
                                certify=True, seed=pipeline.seed)
    key = (_circuit_key(circuit), pipeline.marker, pipeline.certify)
    if use_cache:
        cached = _OPTIMIZE_CACHE.get(key)
        if cached is None and not pipeline.certify:
            # A clean certified run is strictly stronger evidence than
            # an uncertified one — reuse it; never the other way round.
            cached = _OPTIMIZE_CACHE.get(
                (key[0], pipeline.marker, True))
        if cached is not None:
            return cached
    result = pipeline.run(circuit)
    if use_cache:
        _OPTIMIZE_CACHE[key] = result
    return result


def clear_optimize_cache() -> None:
    """Drop all memoized pipeline results (test isolation hook)."""
    _OPTIMIZE_CACHE.clear()


def optimize_gadget(gadget: Gadget,
                    pipeline: Optional[PassPipeline] = None,
                    *,
                    certify: bool = False,
                    use_cache: bool = True) -> Gadget:
    """Return the gadget with its circuit optimized, identity intact.

    The result keeps the gadget's name, registers, block lists and
    notes — only the circuit changes, and only by qubit-preserving
    passes, so every consumer that addresses the gadget by register
    (initial states, fault-location enumeration, evaluators) keeps
    working unchanged.
    """
    if pipeline is None:
        pipeline = gadget_pipeline(certify=certify)
    if not pipeline.preserves_qubits:
        raise AnalysisError(
            "optimize_gadget requires a qubit-preserving pipeline; "
            f"got {pipeline.marker}")
    result = optimize_circuit(gadget.circuit, pipeline,
                              certify=certify, use_cache=use_cache)
    return Gadget(
        name=gadget.name,
        circuit=result.circuit,
        registers=gadget.registers,
        data_blocks=gadget.data_blocks,
        output_blocks=gadget.output_blocks,
        notes=gadget.notes,
    )
