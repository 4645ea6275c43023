"""Vectorized batched trial evaluation over a stacked sparse state.

Monte Carlo threshold estimates run thousands of *near-identical*
small circuits: the same gadget, the same initial state, only the
injected Pauli fault pattern differs from trial to trial.  A serial
simulation pays the full per-gate Python dispatch cost once per trial.
:class:`BatchedState` amortises that cost across a whole batch by
stacking B trials into **one** :class:`~repro.simulators.sparse.
SparseState`.  This is the engine's only evaluation path
(:mod:`repro.analysis.engine`); a width of one is a one-lane stack.

* the batch axis is encoded as ``ceil(log2(B))`` extra *lane* qubits
  appended after the data qubits, so a trial's basis index becomes
  ``(data_index << lane_bits) | lane``;
* gates address data qubits with their usual labels and are applied
  *once* for the whole stack — every vectorised numpy kernel in
  :class:`SparseState` (bit twiddles, phase multiplies, lexsort
  merges) now sweeps B trials per Python-level call;
* per-trial fault patterns are injected with :meth:`BatchedState.
  apply_pauli_lanes`, a masked Pauli application that touches only the
  selected lanes.

Because lanes occupy the *least significant* bits, sorting by the
combined index orders terms by data index first and lane second, and
``numpy``'s stable lexsort keeps equal keys in arrival order — so each
lane's term subsequence evolves through exactly the same floating
point operations, in exactly the same order, as a serial
:class:`SparseState` run of that trial alone.  :meth:`BatchedState.
extract_lane` therefore recovers **bit-identical** amplitudes, so the
stack width never perturbs verdict streams, checkpoints or SPRT
decision sequences (certified against the serial reference
:func:`repro.analysis.engine.evaluate_fault_pattern` by
``tests/simulators/test_batched_equivalence.py``).

:func:`evaluate_fault_patterns_batched` judges the finished stack
without taking it apart: the evaluators of :mod:`repro.analysis.
evaluators` carry a lane judge (``evaluator.lanes``) that rules on
every lane in one vectorised pass over the stacked terms, and is the
same code that gives their serial verdict.  Lanes are extracted only
for an ``invariant`` and for a plain callable evaluator with no judge.

Faults that land at the same circuit point are applied in canonical
pattern order — sorted by ``(x_bits, z_bits, phase)`` and occurrence —
matching :func:`repro.analysis.engine.canonical_pattern`.  Patterns
already in canonical order (everything the engine evaluates) thus
replay the serial operation sequence exactly; non-canonical patterns
get an equivalent state up to the global phase of commuting same-point
Paulis past each other.

The stacked register must fit the :class:`SparseState` width limit
(192 qubits); oversized batches raise
:class:`~repro.exceptions.SimulationError`, which the engine reports
as a :class:`~repro.exceptions.RuntimeIntegrityError`, as it does a
stack that runs out of memory.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit, GateOp
from repro.circuits.gates import Gate
from repro.circuits.pauli import PauliString
from repro.exceptions import FaultToleranceError, SimulationError
from repro.simulators.sparse import SparseState

_WORD = 64


def _right_shifted_columns(matrix: np.ndarray, shift: int,
                           cols_out: int) -> np.ndarray:
    """Vectorised multi-word right shift of a uint64 column matrix.

    The mirror image of :meth:`SparseState._shifted_columns`; used to
    strip the lane bits off extracted trial indices.
    """
    terms, cols_in = matrix.shape
    out = np.zeros((terms, cols_out), dtype=np.uint64)
    word_shift, bit_shift = divmod(shift, _WORD)
    for col in range(cols_out):
        source = col + word_shift
        if source < cols_in:
            if bit_shift:
                out[:, col] = matrix[:, source] >> np.uint64(bit_shift)
                if source + 1 < cols_in:
                    out[:, col] |= matrix[:, source + 1] << np.uint64(
                        _WORD - bit_shift
                    )
            else:
                out[:, col] = matrix[:, source]
    return out


class BatchedState:
    """B stacked trials of an n-qubit pure state in one sparse register.

    All B lanes start as copies of ``initial``; :meth:`apply_gate`
    advances the whole stack at once, :meth:`apply_pauli_lanes` injects
    per-trial faults, and :meth:`extract_lane` recovers one trial as a
    plain :class:`SparseState` with bit-identical amplitudes to a
    serial run of that trial.
    """

    def __init__(self, initial: SparseState, batch: int) -> None:
        if batch < 1:
            raise SimulationError(
                f"batch size must be >= 1, got {batch}"
            )
        self.num_qubits = initial.num_qubits
        self.batch = batch
        self.lane_bits = (batch - 1).bit_length()
        total = self.num_qubits + self.lane_bits
        # SparseState.__init__ enforces the 192-qubit width cap; an
        # oversized stack surfaces as SimulationError.
        inner = SparseState(total)
        shifted = SparseState._shifted_columns(
            initial._indices, self.lane_bits, inner._cols
        )
        terms = initial.num_terms
        # Lane-major tiling: lane 0's terms first, then lane 1's, ...
        # so each lane's subsequence starts in the serial term order.
        stacked = np.tile(shifted, (batch, 1))
        lanes = np.repeat(
            np.arange(batch, dtype=np.uint64), terms
        )
        stacked[:, 0] |= lanes
        inner._indices = stacked
        inner._amplitudes = np.tile(initial._amplitudes, batch)
        self._state = inner
        self._lane_mask = np.uint64((1 << self.lane_bits) - 1)

    # -- plumbing ---------------------------------------------------------

    @property
    def num_terms(self) -> int:
        return self._state.num_terms

    def _lane_ids(self) -> np.ndarray:
        """The lane index of each stacked term (int64 vector)."""
        return (self._state._indices[:, 0] & self._lane_mask).astype(
            np.int64
        )

    def _check_qubit(self, qubit: int) -> None:
        # The inner register is wider than the logical one; guard here
        # so no gate can ever address a lane bit.
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(
                f"qubit {qubit} out of range [0, {self.num_qubits})"
            )

    # -- evolution --------------------------------------------------------

    def apply_gate(self, gate: Gate, qubits: Sequence[int]) -> None:
        """Apply one gate to every lane (data qubits keep their labels)."""
        for qubit in qubits:
            self._check_qubit(qubit)
        self._state.apply_gate(gate, qubits)

    def apply_circuit(self, circuit: Circuit) -> None:
        """Apply a unitary, unconditional circuit to every lane."""
        if circuit.has_measurements:
            raise SimulationError(
                "batched evolution handles unitary circuits only"
            )
        if circuit.num_qubits > self.num_qubits:
            raise SimulationError(
                f"circuit spans {circuit.num_qubits} qubits, state has "
                f"{self.num_qubits}"
            )
        for op in circuit.operations:
            if not isinstance(op, GateOp) or op.condition is not None:
                raise SimulationError(
                    "conditioned gate in unitary context"
                )
            self.apply_gate(op.gate, op.qubits)

    def apply_pauli_lanes(self, pauli: PauliString,
                          lanes: Sequence[int]) -> None:
        """Apply one Pauli fault to the listed lanes only.

        Mirrors :meth:`SparseState.apply_pauli` operation for
        operation (X: index flip; Y: ``1j * (1 - 2 bit)`` phase then
        flip; Z: ``1 - 2 bit`` phase; then the string's phase offset),
        restricted to terms whose lane is selected — so a selected
        lane's amplitudes see the identical float sequence a serial
        ``apply_pauli`` would produce, and unselected lanes are
        untouched.
        """
        if pauli.num_qubits != self.num_qubits:
            raise SimulationError("PauliString size mismatch")
        lane_list = list(lanes)
        for lane in lane_list:
            if not 0 <= lane < self.batch:
                raise SimulationError(
                    f"lane {lane} out of range [0, {self.batch})"
                )
        table = np.zeros(self.batch, dtype=bool)
        table[lane_list] = True
        selected = table[self._lane_ids()]
        if not selected.any():
            return
        state = self._state
        for qubit in pauli.support():
            kind = pauli.kind_at(qubit)
            if kind == "X":
                state._flip_where(selected, qubit)
            elif kind == "Y":
                bit = state._bit(qubit)
                factor = 1j * (1.0 - 2.0 * bit)
                state._amplitudes[selected] = (
                    state._amplitudes[selected] * factor[selected]
                )
                state._flip_where(selected, qubit)
            elif kind == "Z":
                factor = 1.0 - 2.0 * state._bit(qubit)
                state._amplitudes[selected] = (
                    state._amplitudes[selected] * factor[selected]
                )
        offset = pauli.phase_offset()
        if offset:
            state._amplitudes[selected] = (
                state._amplitudes[selected] * (1j**offset)
            )

    # -- extraction -------------------------------------------------------

    def extract_lane(self, lane: int) -> SparseState:
        """One trial's state, bit-identical to its serial evolution."""
        if not 0 <= lane < self.batch:
            raise SimulationError(
                f"lane {lane} out of range [0, {self.batch})"
            )
        selected = self._lane_ids() == lane
        if not selected.any():
            raise SimulationError(
                f"lane {lane} collapsed to zero in the stacked state"
            )
        result = SparseState(self.num_qubits)
        result._indices = _right_shifted_columns(
            self._state._indices[selected], self.lane_bits, result._cols
        )
        result._amplitudes = self._state._amplitudes[selected].copy()
        return result

    def __repr__(self) -> str:
        return (
            f"BatchedState(num_qubits={self.num_qubits}, "
            f"batch={self.batch}, terms={self.num_terms})"
        )


Fault = Tuple[PauliString, int]
FaultPattern = Tuple[Fault, ...]

_PauliKey = Tuple[int, int, int]


def _group_faults(
    patterns: Sequence[FaultPattern],
) -> Dict[int, List[Tuple[PauliString, List[int]]]]:
    """Group the stacked patterns' faults by circuit point.

    Returns ``{after_op: [(pauli, lanes), ...]}`` where each entry is
    one Pauli applied to the lanes that contain it; repeated identical
    faults within one pattern become separate occurrence entries so
    multiplicity is preserved.  Entries are ordered by ``(x_bits,
    z_bits, phase, occurrence)`` — the within-point order of
    :func:`repro.analysis.engine.canonical_pattern` — so canonical
    patterns replay their serial fault sequence exactly.
    """
    grouped: Dict[int, Dict[Tuple[_PauliKey, int],
                            Tuple[PauliString, List[int]]]] = {}
    for lane, pattern in enumerate(patterns):
        seen: Dict[Tuple[int, _PauliKey], int] = {}
        for pauli, after_op in pattern:
            key = (pauli.x_bits, pauli.z_bits, pauli.phase)
            occurrence = seen.get((after_op, key), 0)
            seen[(after_op, key)] = occurrence + 1
            bucket = grouped.setdefault(after_op, {})
            entry = bucket.get((key, occurrence))
            if entry is None:
                bucket[(key, occurrence)] = (pauli, [lane])
            else:
                entry[1].append(lane)
    return {
        point: [entry for _, entry in sorted(bucket.items())]
        for point, bucket in grouped.items()
    }


def apply_circuit_with_fault_patterns(
    state: BatchedState, circuit: Circuit,
    patterns: Sequence[FaultPattern],
) -> None:
    """Run ``circuit`` on every lane, injecting pattern i into lane i.

    The batched analogue of :func:`repro.ft.gadget.
    apply_circuit_with_faults`: point ``-1`` faults first, then each
    gate followed by the faults scheduled after it.
    """
    if len(patterns) != state.batch:
        raise SimulationError(
            f"{len(patterns)} patterns for a batch of {state.batch}"
        )
    grouped = _group_faults(patterns)
    for pauli, lanes in grouped.get(-1, []):
        state.apply_pauli_lanes(pauli, lanes)
    for index, op in enumerate(circuit.operations):
        if not isinstance(op, GateOp) or op.condition is not None:
            raise FaultToleranceError(
                "gadget circuits must be unconditional and unitary"
            )
        state.apply_gate(op.gate, op.qubits)
        for pauli, lanes in grouped.get(index, []):
            state.apply_pauli_lanes(pauli, lanes)


def evaluate_fault_patterns_batched(
    gadget, initial_state: SparseState, evaluator,
    patterns: Sequence[FaultPattern],
    invariant: Optional[object] = None,
) -> List[bool]:
    """Evaluate a batch of fault patterns in one stacked simulation.

    Returns one verdict per pattern, in order — the verdict
    :func:`repro.analysis.engine.evaluate_fault_pattern` gives serially
    on the same (canonical) pattern.  An evaluator carrying a lane
    judge (``evaluator.lanes``, see :mod:`repro.analysis.evaluators`)
    rules on the whole stack in one call; a plain callable sees each
    extracted lane.  ``invariant`` always sees every extracted lane,
    in lane order.
    """
    patterns = list(patterns)
    if not patterns:
        return []
    state = BatchedState(initial_state, len(patterns))
    apply_circuit_with_fault_patterns(state, gadget.circuit, patterns)
    judge = getattr(evaluator, "lanes", None)
    verdicts: List[bool] = []
    if judge is None or invariant is not None:
        for lane in range(state.batch):
            final = state.extract_lane(lane)
            if invariant is not None:
                invariant(final)
            if judge is None:
                verdicts.append(bool(evaluator(final)))
    if judge is not None:
        verdicts = [bool(verdict) for verdict in
                    judge(state._state, state._lane_ids(), state.batch)]
    return verdicts
