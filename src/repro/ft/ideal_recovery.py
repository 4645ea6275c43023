"""Ideal (noiseless) recovery: the reference oracle for the evaluators.

A gadget output is acceptable when ideal error correction on its data
block would restore the intended logical state.  Naively comparing
against ``E |expected>`` for a fixed Pauli E is too strict: a fault that
crossed a non-Clifford gate (e.g. the controlled-S legs of the T
gadget) leaves a *branch-dependent* Pauli residual, correlated with the
classical ancilla.  Genuine error correction handles that, because the
extracted syndrome is branch-dependent too.

:func:`apply_perfect_recovery` therefore implements a coherent,
unconstrained (non-fault-tolerant — it is an evaluator, not a protocol)
decoder directly on a sparse state:

* X-type errors: fresh ancillas take the per-basis-term classical
  syndrome, and the minimum-weight correction for that syndrome is
  XOR-ed into the block — a basis permutation, hence unitary.
* Z-type errors: conjugate the block by bitwise H (CSS duality maps
  phase errors to bit errors and X-stabilizers to Z-stabilizers) and
  run the same procedure.

After recovery, the block lies in the code space with at most a
*logical* error; :func:`recovered_block_overlap` then measures the
overlap with the expected logical block state, and 1.0 certifies the
gadget output.

This literal construction is the reference.  The engine's judge,
:func:`repro.analysis.evaluators.recovered_overlap_evaluator`, reaches
the same overlap from per-code tables without the Hadamard round trip,
and ``tests/verify/test_lane_evaluators.py`` checks it against
:func:`apply_perfect_recovery` + ``block_overlap`` fault by fault.
"""

from __future__ import annotations

import weakref
from typing import Sequence

import numpy as np

from repro.circuits import gates
from repro.codes.quantum.css import CssCode
from repro.exceptions import DecodingFailure, FaultToleranceError
from repro.simulators.sparse import SparseState


#: Per-code syndrome tables, built once per code object.
_CORRECTION_TABLES: "weakref.WeakKeyDictionary[CssCode, np.ndarray]" = \
    weakref.WeakKeyDictionary()


def _syndrome_correction_table(code: CssCode) -> np.ndarray:
    """(2^r, n) uint8: row s is the minimum-weight error whose
    syndrome (big-endian over the r check rows) is s.

    Rows outside the correction radius are zero — such a block is left
    untouched and the overlap check reports the failure.  Memoised per
    code; the returned array is read-only.
    """
    table = _CORRECTION_TABLES.get(code)
    if table is not None:
        return table
    num_checks = int(code.classical_code.parity_check.shape[0])
    table = np.zeros((2**num_checks, code.n), dtype=np.uint8)
    for value in range(2**num_checks):
        syndrome = [(value >> (num_checks - 1 - row)) & 1
                    for row in range(num_checks)]
        try:
            table[value] = code.classical_code.error_for_syndrome(
                syndrome)
        except DecodingFailure:
            pass
    table.setflags(write=False)
    _CORRECTION_TABLES[code] = table
    return table


def _apply_x_recovery(state: SparseState, block: Sequence[int],
                      code: CssCode) -> None:
    """Correct bit errors on the block (basis permutation + ancillas)."""
    checks = code.classical_code.parity_check
    num_checks = int(checks.shape[0])
    if num_checks == 0:
        return
    ancillas = state.allocate(num_checks)
    bits = [state._bit(block[position]) for position in range(code.n)]
    # Per-term syndrome value (big-endian over check rows).
    syndrome = np.zeros(state.num_terms, dtype=np.int64)
    for row in range(num_checks):
        row_parity = np.zeros(state.num_terms, dtype=np.int64)
        for position in np.nonzero(checks[row])[0]:
            row_parity ^= bits[int(position)]
        syndrome = (syndrome << 1) | row_parity
    # One index mask per syndrome value: the correction on the block
    # plus the syndrome record in the fresh ancillas, which keeps the
    # map injective — a unitary permutation of basis states.
    table = _syndrome_correction_table(code)
    values = np.arange(2**num_checks, dtype=np.uint64)
    masks = np.zeros((values.shape[0], state._cols), dtype=np.uint64)
    for position, qubit in enumerate(block):
        col, shift, _ = state._position(qubit)
        masks[:, col] |= table[:, position].astype(np.uint64) << shift
    for row, qubit in enumerate(ancillas):
        col, shift, _ = state._position(qubit)
        record = (values >> np.uint64(num_checks - 1 - row)) & np.uint64(1)
        masks[:, col] |= record << shift
    state._indices = state._indices ^ masks[syndrome]
    state._merge()


def apply_perfect_recovery(state: SparseState, block: Sequence[int],
                           code: CssCode) -> None:
    """Ideal X- and Z-error correction of one block, in place.

    Allocates evaluator ancillas (two syndrome registers); callers that
    need the original register layout should pass a copy.
    """
    if len(block) != code.n:
        raise FaultToleranceError("block size does not match the code")
    _apply_x_recovery(state, block, code)
    for qubit in block:
        state.apply_gate(gates.H, [qubit])
    _apply_x_recovery(state, block, code)
    for qubit in block:
        state.apply_gate(gates.H, [qubit])


def recovered_block_overlap(state: SparseState, block: Sequence[int],
                            code: CssCode,
                            expected: SparseState) -> float:
    """Overlap of a block with its intended state after ideal recovery.

    Returns <psi'| (|phi><phi|_block (x) I) |psi'> where psi' is the
    state after perfect recovery on the block.  Equals 1.0 exactly when
    the gadget's residual error on the block was correctable and the
    corrected block is disentangled from all junk registers.
    """
    scratch = state.copy()
    apply_perfect_recovery(scratch, block, code)
    return scratch.block_overlap(block, expected)
