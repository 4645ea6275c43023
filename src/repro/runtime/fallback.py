"""Graceful backend degradation for fault-pattern evaluation.

The sparse simulator is the engine's workhorse, but it is also the
component most likely to blow up mid-campaign: a pathological fault
pattern can explode its term count into a ``MemoryError``, or an
unsupported operation can surface as a
:class:`~repro.exceptions.SimulationError`.  Losing a 10-hour sweep to
one chunk is exactly the failure mode the paper's recovery circuits
exist to avoid in hardware, so the software mirrors them:

* :class:`FallbackPolicy` re-evaluates a failing pattern down a
  *degradation ladder* — sparse, then dense statevector, then density
  matrix — converting each fallback's output back to a
  :class:`~repro.simulators.sparse.SparseState` so the caller's
  evaluator and invariant run unchanged.  Verdicts are therefore
  backend-independent (all three are exact simulators of the same
  unitary-plus-Pauli-fault physics); only cost degrades.
* invariant hooks get a *retry-once* shield: a
  :class:`~repro.exceptions.VerificationError` triggers one fresh
  re-simulation before being trusted, separating transient numerics
  (or injected chaos) from reproducible divergence.

Every degradation and transient retry is counted in a
:class:`FallbackRecord` that the engine folds into its
:class:`~repro.analysis.engine.EngineStats` — degraded chunks are
visible in reports, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    RuntimeIntegrityError,
    SimulationError,
    VerificationError,
)
from repro.runtime.chaos import Fault, raise_injected
from repro.simulators.sparse import SparseState

#: Exception types that trigger a step down the ladder.
DEGRADABLE = (MemoryError, SimulationError)


@dataclass
class FallbackRecord:
    """What the policy had to do to get one chunk's verdicts."""

    degraded: Dict[str, int] = field(default_factory=dict)
    invariant_retries: int = 0

    def note_degraded(self, backend: str) -> None:
        self.degraded[backend] = self.degraded.get(backend, 0) + 1

    def merge(self, other: "FallbackRecord") -> None:
        for backend, count in other.degraded.items():
            self.degraded[backend] = \
                self.degraded.get(backend, 0) + count
        self.invariant_retries += other.invariant_retries


@dataclass(frozen=True)
class FallbackPolicy:
    """The degradation ladder and invariant-retry contract.

    Args:
        ladder: backend names tried in order.  ``sparse`` is the
            primary; ``statevector`` densifies the run (bounded by
            ``max_dense_qubits``); ``density_matrix`` evolves the
            projector and re-extracts the pure state (bounded by
            ``max_density_qubits`` — it is O(4^n)).
        invariant_retries: fresh re-simulations granted to an
            invariant hook before its ``VerificationError`` is
            trusted as a real divergence.
        max_dense_qubits: statevector rung capacity.
        max_density_qubits: density-matrix rung capacity.
    """

    ladder: Tuple[str, ...] = ("sparse", "statevector",
                               "density_matrix")
    invariant_retries: int = 1
    max_dense_qubits: int = 20
    max_density_qubits: int = 10

    def __post_init__(self) -> None:
        unknown = [name for name in self.ladder
                   if name not in ("sparse", "statevector",
                                   "density_matrix")]
        if unknown:
            raise ValueError(
                f"unknown fallback backends: {unknown!r}"
            )

    # -- per-backend simulation -------------------------------------

    def _final_state(self, backend: str, gadget, initial_state,
                     pattern) -> SparseState:
        from repro.ft.gadget import apply_circuit_with_faults

        if backend == "sparse":
            state = initial_state.copy()
            apply_circuit_with_faults(state, gadget.circuit,
                                      list(pattern))
            return state
        if backend == "statevector":
            if initial_state.num_qubits > self.max_dense_qubits:
                raise SimulationError(
                    f"statevector fallback capped at "
                    f"{self.max_dense_qubits} qubits"
                )
            dense = initial_state.to_dense()
            apply_circuit_with_faults(dense, gadget.circuit,
                                      list(pattern))
            return SparseState.from_dense(dense)
        # density_matrix: evolve |psi><psi| exactly, then recover the
        # (unique, unit-eigenvalue) pure state.  The global phase of
        # the extracted eigenvector is arbitrary, which is fine: the
        # engine's evaluators are phase-insensitive by contract.
        from repro.circuits import gates as gate_lib
        from repro.circuits.circuit import GateOp
        from repro.exceptions import FaultToleranceError
        from repro.simulators.density_matrix import DensityMatrix

        if initial_state.num_qubits > self.max_density_qubits:
            raise SimulationError(
                f"density-matrix fallback capped at "
                f"{self.max_density_qubits} qubits"
            )
        rho = DensityMatrix.from_statevector(initial_state.to_dense())

        def apply_pauli(pauli) -> None:
            for qubit in range(pauli.num_qubits):
                x = pauli.x_bits[qubit]
                z = pauli.z_bits[qubit]
                if x and z:
                    rho.apply_gate(gate_lib.Y, [qubit])
                elif x:
                    rho.apply_gate(gate_lib.X, [qubit])
                elif z:
                    rho.apply_gate(gate_lib.Z, [qubit])

        by_point: Dict[int, list] = {}
        for pauli, after_op in pattern:
            by_point.setdefault(after_op, []).append(pauli)
        for pauli in by_point.get(-1, []):
            apply_pauli(pauli)
        for index, op in enumerate(gadget.circuit.operations):
            if not isinstance(op, GateOp) or op.condition is not None:
                raise FaultToleranceError(
                    "gadget circuits must be unconditional and unitary"
                )
            rho.apply_gate(op.gate, op.qubits)
            for pauli in by_point.get(index, []):
                apply_pauli(pauli)
        values, vectors = np.linalg.eigh(rho.matrix)
        return SparseState.from_dense(vectors[:, int(np.argmax(values))])

    def _checked_state(self, backend: str, gadget, initial_state,
                       pattern, invariant, record: FallbackRecord,
                       faults: Sequence[Fault]) -> SparseState:
        """Simulate on one rung with the invariant retry shield."""
        invariant_attempt = 0
        while True:
            if backend == "sparse" and invariant_attempt == 0:
                raise_injected(faults, "oom", "simulation_error")
            state = self._final_state(backend, gadget, initial_state,
                                      pattern)
            if invariant is None:
                return state
            try:
                if invariant_attempt == 0:
                    raise_injected(faults, "verification_error")
                invariant(state)
                return state
            except VerificationError:
                if invariant_attempt >= self.invariant_retries:
                    raise
                invariant_attempt += 1
                record.invariant_retries += 1

    # -- public entry point -----------------------------------------

    def evaluate(self, gadget, initial_state,
                 evaluator: Callable[[SparseState], bool],
                 pattern: Sequence, *,
                 invariant: Optional[
                     Callable[[SparseState], None]] = None,
                 record: Optional[FallbackRecord] = None,
                 faults: Sequence[Fault] = ()) -> bool:
        """One pattern's verdict, degrading down the ladder on error.

        ``MemoryError``/``SimulationError`` step to the next rung;
        exhausting the ladder raises
        :class:`~repro.exceptions.RuntimeIntegrityError` chaining the
        last backend failure.  ``VerificationError`` (a *checked*
        divergence, not a capacity problem) propagates after the
        retry shield — degrading backends cannot launder it.
        ``faults`` are the engine faults matched for this chunk
        attempt: ``oom``/``simulation_error`` strike the sparse rung,
        ``verification_error`` the invariant's first check.
        """
        if record is None:
            record = FallbackRecord()
        last_error: Optional[BaseException] = None
        for rung, backend in enumerate(self.ladder):
            try:
                state = self._checked_state(
                    backend, gadget, initial_state, pattern,
                    invariant, record, faults)
            except DEGRADABLE as exc:
                last_error = exc
                continue
            if rung > 0:
                record.note_degraded(backend)
            return bool(evaluator(state))
        raise RuntimeIntegrityError(
            f"every backend in {self.ladder!r} failed for a "
            f"fault pattern of weight {len(tuple(pattern))}"
        ) from last_error
