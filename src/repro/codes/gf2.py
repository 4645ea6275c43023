"""Linear algebra over GF(2).

All code constructions in the library — the Hamming/repetition
classical codes, the CSS construction, the systematic encoder builder
and the syndrome decoders — reduce to row operations on binary
matrices.  Matrices are numpy uint8 arrays with entries in {0, 1}.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import CodeError


def as_gf2(matrix) -> np.ndarray:
    """Coerce to a 2-D uint8 array with entries reduced mod 2."""
    array = np.atleast_2d(np.asarray(matrix, dtype=np.int64) % 2)
    return array.astype(np.uint8)


def rref(matrix: np.ndarray) -> Tuple[np.ndarray, List[int]]:
    """Reduced row-echelon form over GF(2).

    Returns:
        (reduced matrix, pivot column indices).  Zero rows are kept so
        the shape is preserved.
    """
    work = as_gf2(matrix).copy()
    rows, cols = work.shape
    pivots: List[int] = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        pivot_rows = np.nonzero(work[row:, col])[0]
        if pivot_rows.size == 0:
            continue
        pivot = row + int(pivot_rows[0])
        if pivot != row:
            work[[row, pivot]] = work[[pivot, row]]
        for other in range(rows):
            if other != row and work[other, col]:
                work[other] ^= work[row]
        pivots.append(col)
        row += 1
    return work, pivots


def rank(matrix: np.ndarray) -> int:
    """Rank over GF(2)."""
    _, pivots = rref(matrix)
    return len(pivots)


def nullspace(matrix: np.ndarray) -> np.ndarray:
    """A basis of the right nullspace {x : M x = 0}, rows = basis vectors."""
    reduced, pivots = rref(matrix)
    _, cols = reduced.shape
    free = [c for c in range(cols) if c not in pivots]
    basis: List[np.ndarray] = []
    for free_col in free:
        vector = np.zeros(cols, dtype=np.uint8)
        vector[free_col] = 1
        for row_index, pivot_col in enumerate(pivots):
            if reduced[row_index, free_col]:
                vector[pivot_col] = 1
        basis.append(vector)
    if not basis:
        return np.zeros((0, cols), dtype=np.uint8)
    return np.array(basis, dtype=np.uint8)


def solve(matrix: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """One solution x of M x = b over GF(2), or None if inconsistent."""
    work = as_gf2(matrix)
    vector = np.asarray(rhs, dtype=np.uint8).reshape(-1) % 2
    rows, cols = work.shape
    if vector.shape[0] != rows:
        raise CodeError("solve: dimension mismatch")
    augmented = np.concatenate([work, vector.reshape(-1, 1)], axis=1)
    reduced, pivots = rref(augmented)
    if cols in pivots:
        return None  # pivot in the augmented column: inconsistent
    solution = np.zeros(cols, dtype=np.uint8)
    for row_index, pivot_col in enumerate(pivots):
        solution[pivot_col] = reduced[row_index, cols]
    return solution


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2)."""
    product = as_gf2(a).astype(np.int64) @ as_gf2(b).astype(np.int64)
    return (product % 2).astype(np.uint8)


def matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Matrix-vector product over GF(2)."""
    product = as_gf2(matrix).astype(np.int64) @ (
        np.asarray(vector, dtype=np.int64).reshape(-1) % 2
    )
    return (product % 2).astype(np.uint8)


def row_space_contains(matrix: np.ndarray, vector: np.ndarray) -> bool:
    """Whether ``vector`` lies in the row space of ``matrix``."""
    base_rank = rank(matrix)
    stacked = np.vstack([as_gf2(matrix), as_gf2(vector)])
    return rank(stacked) == base_rank


def all_codewords(generator: np.ndarray) -> np.ndarray:
    """Enumerate the row space of a generator matrix (2^k rows)."""
    gen = as_gf2(generator)
    k, n = gen.shape
    if k > 20:
        raise CodeError(f"refusing to enumerate 2^{k} codewords")
    words = np.zeros((2**k, n), dtype=np.uint8)
    for message in range(2**k):
        bits = np.array([(message >> i) & 1 for i in range(k)],
                        dtype=np.uint8)
        words[message] = matvec(gen.T, bits)
    return np.unique(words, axis=0)


def weight(vector: np.ndarray) -> int:
    """Hamming weight."""
    return int(np.sum(np.asarray(vector, dtype=np.uint8) % 2))
