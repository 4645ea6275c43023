"""Standard acceptance evaluators for gadget outputs.

An *evaluator* maps a gadget's (possibly fault-corrupted) output state
to accept/reject.  The shared definition of "acceptable" throughout
the experiments: after IDEAL error correction of the protected blocks,
the intended logical output state is recovered exactly (junk registers
may hold anything).  This matches the paper's failure notion — a
gadget fails only when it leaves an *uncorrectable* error behind.

Every factory here builds its decoding tables once and returns a
closure ``evaluate(state) -> bool`` carrying one attribute,
``evaluate.lanes(state, lane_ids, batch) -> np.ndarray[bool]``: the
judge itself, which rules on every lane of a stacked
:class:`~repro.simulators.batched.BatchedState` register in one
vectorised pass (``lane_ids`` gives each term's lane).
``evaluate(state)`` is ``lanes(state, zeros, 1)[0]``, so the serial and
the batched verdict come from the same code.  The attribute lives in
the closure's ``__dict__``, which ``functools.wraps`` copies, so a
wrapped evaluator keeps its judge.

:func:`recovered_overlap_evaluator` evaluates ideal recovery
(:mod:`repro.ft.ideal_recovery`, the reference oracle) without running
it.  With Φ the expected state — in the code space — and b' = b ⊕
corr_X(s_X(b)) each term's block value after X correction, Z recovery
followed by the overlap with Φ is

    Σ over groups g and Z-syndromes s of |A(g, s)|²,
    A(g, s) = Σ_{t ∈ g} ψ_t (−1)^{corr_Z(s)·b'_t} conj(Φ[b'_t]),

where a group is (the index with the block bits cleared, s_X).  This
holds because P_s Z^{corr(s)} Φ = Z^{corr(s)} Φ; a syndrome whose
table entry does not clear it (a decoding failure, corrected by
nothing) contributes 0.  Groups include the lane bits, so they never
span lanes.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.codes.quantum.css import CssCode
from repro.exceptions import CodeError, DecodingFailure, FaultToleranceError
from repro.ft.gadget import Gadget
from repro.ft.ideal_recovery import _syndrome_correction_table
from repro.ft.ngate import classical_majority_value
from repro.simulators.sparse import SparseState

_DEFAULT_TOLERANCE = 1e-7

#: Widest block a 2^n-entry decoding table is built for.
_MAX_TABLE_QUBITS = 20

#: Entries of the (terms x syndrome columns) product held at once.
_CHUNK_ENTRIES = 1 << 16

#: Per-code decoding tables, built once per code object.
_TABLES: "weakref.WeakKeyDictionary[CssCode, Dict[tuple, tuple]]" = \
    weakref.WeakKeyDictionary()

_LaneJudge = Callable[[SparseState, np.ndarray, int], np.ndarray]


def _judged_by(lanes: _LaneJudge) -> Callable[[SparseState], bool]:
    """The serial evaluator of a lane judge, carrying it as ``.lanes``."""

    def evaluate(state: SparseState) -> bool:
        lane_ids = np.zeros(state.num_terms, dtype=np.int64)
        return bool(lanes(state, lane_ids, 1)[0])

    evaluate.lanes = lanes
    return evaluate


def _no_failing_term(ok: np.ndarray, lane_ids: np.ndarray,
                     batch: int) -> np.ndarray:
    """Per lane: True when every one of its terms is ``ok``."""
    return np.bincount(lane_ids[~ok], minlength=batch) == 0


def _word_bits(width: int) -> np.ndarray:
    """(2^width, width) uint8: row v is v's big-endian bits."""
    values = np.arange(2**width, dtype=np.int64)[:, None]
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)[None, :]
    return ((values >> shifts) & 1).astype(np.uint8)


def _packed(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 bits as big-endian integers (int64)."""
    width = bits.shape[-1]
    return bits.astype(np.int64) @ (
        1 << np.arange(width - 1, -1, -1, dtype=np.int64))


def _code_tables(code: CssCode, key: tuple,
                 build: Callable[[], tuple]) -> tuple:
    if code.n > _MAX_TABLE_QUBITS:
        raise FaultToleranceError(
            f"table-driven evaluators take blocks of at most "
            f"{_MAX_TABLE_QUBITS} qubits, {code.name} has {code.n}"
        )
    memo = _TABLES.setdefault(code, {})
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _recovery_tables(code: CssCode) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """Ideal-recovery tables over the 2^n block values v.

    Returns ``(syndrome, corrected, z_sign)``: the X syndrome of v,
    v after X correction, and the (2^n, 2^r) sign (−1)^{corr(s)·v} of
    Z correction s, zero where the table entry of s does not clear s.
    """

    def build():
        words = _word_bits(code.n).astype(np.int64)
        checks = code.classical_code.parity_check.astype(np.int64)
        table = _syndrome_correction_table(code).astype(np.int64)
        syndrome = _packed((words @ checks.T) % 2)
        correction = _packed(table)
        clears = syndrome[correction] == np.arange(correction.shape[0])
        corrected = np.arange(2**code.n) ^ correction[syndrome]
        parity = (words @ table.T) % 2
        z_sign = np.where(clears[None, :], 1.0 - 2.0 * parity, 0.0)
        return syndrome, corrected, z_sign

    return _code_tables(code, ("recovery",), build)


def recovered_overlap_evaluator(gadget: Gadget, code: CssCode,
                                blocks: Sequence[str],
                                expected: SparseState,
                                tolerance: float = _DEFAULT_TOLERANCE
                                ) -> Callable[[SparseState], bool]:
    """Accept when ideal recovery restores the expected block state.

    Args:
        gadget: supplies the register layout.
        code: the CSS code protecting the blocks.
        blocks: register names, concatenated in order to match
            ``expected``.
        expected: the ideal joint state of those blocks; it must lie
            in the code space of every block.
        tolerance: acceptable deviation from overlap 1.
    """
    overlaps = _recovered_overlaps(gadget, code, blocks, expected)

    def lanes(state: SparseState, lane_ids: np.ndarray,
              batch: int) -> np.ndarray:
        return overlaps(state, lane_ids, batch) > 1.0 - tolerance

    return _judged_by(lanes)


def _recovered_overlaps(gadget: Gadget, code: CssCode,
                        blocks: Sequence[str],
                        expected: SparseState) -> _LaneJudge:
    """Per-lane overlap with ``expected`` after ideal recovery of the
    blocks, by the table formula of the module docstring."""
    qubit_lists = [list(gadget.qubits(name)) for name in blocks]
    for qubits in qubit_lists:
        if len(qubits) != code.n:
            raise FaultToleranceError("block size does not match the code")
    width = code.n * len(qubit_lists)
    if expected.num_qubits != width or width > 63:
        raise FaultToleranceError(
            f"expected state spans {expected.num_qubits} qubits, the "
            f"blocks {width} (at most 63)"
        )
    syndrome, corrected, z_sign = _recovery_tables(code)
    num_blocks = len(qubit_lists)
    num_checks = int(code.classical_code.parity_check.shape[0])
    radix = z_sign.shape[1]
    columns = radix**num_blocks
    phi_keys = np.fromiter(expected.iter_ints(), dtype=np.int64,
                           count=expected.num_terms)
    order = np.argsort(phi_keys)
    phi_keys = phi_keys[order]
    phi_conj = np.conj(expected._amplitudes[order])
    _check_code_space(phi_keys, expected._amplitudes[order], code,
                      num_blocks, syndrome)

    def overlaps(state: SparseState, lane_ids: np.ndarray,
                 batch: int) -> np.ndarray:
        values = [state._packed_values(qubits) for qubits in qubit_lists]
        fixed = [corrected[value] for value in values]
        key = np.zeros(state.num_terms, dtype=np.int64)
        for value in fixed:
            key = (key << code.n) | value
        slot = np.minimum(np.searchsorted(phi_keys, key),
                          phi_keys.shape[0] - 1)
        rows = np.nonzero(phi_keys[slot] == key)[0]
        if not rows.shape[0]:
            return np.zeros(batch)
        group = _group_keys(state, rows, qubit_lists,
                            [syndrome[value[rows]] for value in values],
                            num_checks)
        by_group, starts = _sorted_groups(group)
        rows = rows[by_group]
        weights = state._amplitudes[rows] * phi_conj[slot[rows]]
        fixed = [value[rows] for value in fixed]
        power = np.zeros(starts.shape[0])
        step = max(1, _CHUNK_ENTRIES // rows.shape[0])
        for lo in range(0, columns, step):
            column = np.arange(lo, min(columns, lo + step))
            product = weights[:, None]
            for position, value in enumerate(fixed):
                digit = (column // radix**(num_blocks - 1 - position)
                         ) % radix
                product = product * z_sign[:, digit][value]
            amplitude = np.add.reduceat(product, starts, axis=0)
            power += (amplitude.real**2 + amplitude.imag**2).sum(axis=1)
        return np.bincount(lane_ids[rows[starts]], weights=power,
                           minlength=batch)

    return overlaps


def _group_keys(state: SparseState, rows: np.ndarray,
                qubit_lists: List[List[int]],
                syndromes: List[np.ndarray],
                num_checks: int) -> np.ndarray:
    """The listed terms' indices with each block's bits replaced by
    its X syndrome — the record the X-recovery ancillas would take."""
    keep = np.full(state._cols, ~np.uint64(0))
    records = []
    values = np.arange(2**num_checks, dtype=np.uint64)
    for block in qubit_lists:
        record = np.zeros((values.shape[0], state._cols), dtype=np.uint64)
        for position, qubit in enumerate(block):
            col, shift, mask = state._position(qubit)
            keep[col] &= ~mask
            if position < num_checks:
                bit = (values >> np.uint64(num_checks - 1 - position)
                       ) & np.uint64(1)
                record[:, col] |= bit << shift
        records.append(record)
    group = state._indices[rows] & keep
    for record, syndrome in zip(records, syndromes):
        group |= record[syndrome]
    return group


def _sorted_groups(group: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(order sorting the rows of ``group``, start of each run of equal
    rows in that order)."""
    if group.shape[1] == 1:
        order = np.argsort(group[:, 0], kind="stable")
    else:
        order = np.lexsort(group.T)
    group = group[order]
    starts = np.concatenate([[0], 1 + np.nonzero(
        np.any(group[1:] != group[:-1], axis=1))[0]])
    return order, starts


def _check_code_space(keys: np.ndarray, amplitudes: np.ndarray,
                      code: CssCode, num_blocks: int,
                      syndrome: np.ndarray) -> None:
    """Raise unless the state on ``keys`` (sorted, concatenated
    blocks) is stabilised by every block's X and Z checks."""
    low = (1 << code.n) - 1
    masks = _packed(code.classical_code.parity_check)
    for block in range(num_blocks):
        shift = code.n * (num_blocks - 1 - block)
        if np.any(syndrome[(keys >> shift) & low]):
            raise FaultToleranceError(
                "expected state is not in the code space (Z check)")
        for mask in masks:
            moved = keys ^ (int(mask) << shift)
            slot = np.minimum(np.searchsorted(keys, moved),
                              keys.shape[0] - 1)
            if (np.any(keys[slot] != moved)
                    or not np.allclose(amplitudes[slot], amplitudes,
                                       atol=1e-9)):
                raise FaultToleranceError(
                    "expected state is not in the code space (X check)")


def n_gadget_evaluator(gadget: Gadget, code: CssCode,
                       logical_bit: int
                       ) -> Callable[[SparseState], bool]:
    """Per-basis-term acceptance for the N gadget on a basis input.

    Every computational-basis term of the output must have

    * at most floor((m-1)/2) classical-ancilla bits differing from the
      input's logical value (majority/repetition radius), and
    * a quantum-ancilla word within the code's correction radius of a
      codeword carrying that same logical value.

    Phase errors are ignored on both blocks: the classical ancilla has
    no phase to protect and the quantum ancilla never touches data
    again (paper Sec. 4.1/4.2).  The quantum-ancilla condition is one
    table over the 2^n words, memoised per code.
    """
    classical = gadget.qubits("classical")
    quantum = gadget.qubits("quantum")
    tolerance = max(0, (len(classical) - 1) // 2)

    def build():
        accepted = np.zeros(2**len(quantum), dtype=bool)
        for value, word in enumerate(_word_bits(len(quantum)).tolist()):
            try:
                fixed = code.classical_code.correct(word)
            except (CodeError, DecodingFailure):
                continue
            if code.logical_readout(fixed) != logical_bit:
                continue
            flips = sum(int(w != c) for w, c in zip(word, fixed))
            accepted[value] = flips <= code.correctable_errors
        return (accepted,)

    (accepted,) = _code_tables(code, ("n", len(quantum), logical_bit),
                               build)

    def lanes(state: SparseState, lane_ids: np.ndarray,
              batch: int) -> np.ndarray:
        wrong = np.zeros(state.num_terms, dtype=np.int64)
        for qubit in classical:
            wrong += state._bit(qubit) != logical_bit
        ok = (wrong <= tolerance) & accepted[
            state._packed_values(quantum)]
        return _no_failing_term(ok, lane_ids, batch)

    return _judged_by(lanes)


def classical_block_value_evaluator(gadget: Gadget, block: str,
                                    expected_bit: int,
                                    max_wrong: int
                                    ) -> Callable[[SparseState], bool]:
    """Accept when a classical block majority-decodes to the bit with
    at most ``max_wrong`` corrupted positions in every basis term.

    Raises :class:`~repro.exceptions.FaultToleranceError` when, in a
    lane, the first term that decides the verdict has a tied majority.
    """
    qubits = gadget.qubits(block)
    size = len(qubits)
    # Majority by number of ones (-1: tied), from the shared decoder.
    majority: List[int] = []
    for ones in range(size + 1):
        try:
            majority.append(classical_majority_value(
                [1] * ones + [0] * (size - ones)))
        except FaultToleranceError:
            majority.append(-1)
    majority_of = np.array(majority, dtype=np.int64)

    def lanes(state: SparseState, lane_ids: np.ndarray,
              batch: int) -> np.ndarray:
        ones = np.zeros(state.num_terms, dtype=np.int64)
        wrong = np.zeros(state.num_terms, dtype=np.int64)
        for qubit in qubits:
            bit = state._bit(qubit)
            ones += bit
            wrong += bit != expected_bit
        within = wrong <= max_wrong
        tied = within & (majority_of[ones] < 0)
        ok = within & (majority_of[ones] == expected_bit)
        # A serial scan stops at a lane's first failing or tied term.
        decisive = np.nonzero(~ok)[0]
        _, first = np.unique(lane_ids[decisive], return_index=True)
        if np.any(tied[decisive[first]]):
            raise FaultToleranceError(
                "tied majority on classical ancilla")
        return _no_failing_term(ok, lane_ids, batch)

    return _judged_by(lanes)
