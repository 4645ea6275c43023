"""Sparse state-vector simulation for large, low-entanglement circuits.

The fault-tolerant gadgets of the paper act on several Steane-code
blocks at once — the measurement-free Toffoli of Fig. 4 spans more
than 150 physical qubits, hopeless for a dense state vector.  But
their states stay *sparse in the computational basis*: code words are
superpositions of at most 2^k basis states, and after preparation the
gadgets use only basis-permutation gates (X, CNOT, Toffoli) and
diagonal phase gates (Z, S, T, CZ, CS, CCZ) plus the occasional H.
:class:`SparseState` stores (basis index, amplitude) pairs in numpy
arrays and applies

* permutation gates as vectorised bit twiddling on the index array,
* diagonal gates as vectorised phase multiplication,
* branching gates (H, arbitrary unitaries) by splitting each term and
  re-merging duplicates,

so the cost per gate is O(active terms), independent of qubit count.
Pauli faults, expectation values and projective measurements are all
supported, which makes exhaustive Steane-scale fault injection exact
and fast.

Indices are stored as a (terms, columns) uint64 matrix: one column up
to 64 qubits, two columns to 128, three to 192 — every operation stays
fully vectorised at any width.  Qubit q maps to bit position
``num_qubits - 1 - q`` counted from the least-significant bit of
column 0 (so the convention matches :class:`~repro.simulators.
statevector.StateVector`: qubit 0 is the most significant bit).
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit, GateOp
from repro.circuits.gates import Gate
from repro.circuits.pauli import PauliString
from repro.exceptions import SimulationError

_ATOL = 1e-12
_PRUNE = 1e-14
_MAX_QUBITS = 192
_WORD = 64
_ONE = np.uint64(1)


def _columns_for(num_qubits: int) -> int:
    return max(1, (num_qubits + _WORD - 1) // _WORD)


class SparseState:
    """A pure state stored as sparse (index, amplitude) arrays."""

    def __init__(self, num_qubits: int,
                 indices: Optional[np.ndarray] = None,
                 amplitudes: Optional[np.ndarray] = None) -> None:
        if num_qubits < 0 or num_qubits > _MAX_QUBITS:
            raise SimulationError(
                f"SparseState supports 0..{_MAX_QUBITS} qubits, got "
                f"{num_qubits}"
            )
        self.num_qubits = num_qubits
        self._cols = _columns_for(num_qubits)
        if indices is None:
            self._indices = np.zeros((1, self._cols), dtype=np.uint64)
            self._amplitudes = np.ones(1, dtype=np.complex128)
        else:
            self._indices = self._coerce_matrix(indices)
            self._amplitudes = np.asarray(amplitudes, dtype=np.complex128)
            if self._indices.shape[0] != self._amplitudes.shape[0]:
                raise SimulationError("indices/amplitudes shape mismatch")
            self._merge()
            norm = np.linalg.norm(self._amplitudes)
            if abs(norm - 1.0) > 1e-6:
                raise SimulationError(
                    f"state not normalised (norm {norm:.6f})"
                )

    # -- index plumbing ---------------------------------------------------

    def _coerce_matrix(self, values) -> np.ndarray:
        array = np.asarray(values)
        if array.ndim == 2 and array.dtype == np.uint64 \
                and array.shape[1] == self._cols:
            return array
        return self._index_array([int(v) for v in np.ravel(values)])

    def _index_array(self, values: Sequence[int]) -> np.ndarray:
        """Build the (terms, cols) matrix from Python integers."""
        matrix = np.zeros((len(values), self._cols), dtype=np.uint64)
        mask = (1 << _WORD) - 1
        for row, value in enumerate(values):
            value = int(value)
            for col in range(self._cols):
                matrix[row, col] = np.uint64(value & mask)
                value >>= _WORD
        return matrix

    def _position(self, qubit: int) -> Tuple[int, np.uint64, np.uint64]:
        """(column, shift, mask) of a qubit's bit."""
        pos = self.num_qubits - 1 - qubit
        col, shift = divmod(pos, _WORD)
        return col, np.uint64(shift), _ONE << np.uint64(shift)

    def _bit(self, qubit: int) -> np.ndarray:
        """The value of ``qubit`` in each term (int64 vector of 0/1)."""
        col, shift, _ = self._position(qubit)
        return ((self._indices[:, col] >> shift) & _ONE).astype(np.int64)

    def _flip_where(self, condition: np.ndarray, qubit: int) -> None:
        """XOR the qubit's bit into terms where condition == 1."""
        col, _, mask = self._position(qubit)
        self._indices[:, col] ^= condition.astype(np.uint64) * mask

    def _flip_all(self, qubit: int) -> None:
        col, _, mask = self._position(qubit)
        self._indices[:, col] ^= mask

    @staticmethod
    def _shifted_columns(matrix: np.ndarray, shift: int,
                         cols_out: int) -> np.ndarray:
        """Vectorised multi-word left shift of a column matrix."""
        terms, cols_in = matrix.shape
        out = np.zeros((terms, cols_out), dtype=np.uint64)
        word_shift, bit_shift = divmod(shift, _WORD)
        for col in range(cols_in):
            target = col + word_shift
            if target < cols_out:
                if bit_shift:
                    out[:, target] |= matrix[:, col] << np.uint64(bit_shift)
                else:
                    out[:, target] |= matrix[:, col]
            if bit_shift and target + 1 < cols_out:
                out[:, target + 1] |= matrix[:, col] >> np.uint64(
                    _WORD - bit_shift
                )
        return out

    def iter_ints(self) -> Iterator[int]:
        """Yield each term's basis index as a Python integer."""
        if self._cols == 1:
            for value in self._indices[:, 0]:
                yield int(value)
            return
        for row in self._indices:
            value = 0
            for col in range(self._cols - 1, -1, -1):
                value = (value << _WORD) | int(row[col])
            yield value

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_basis_state(cls, bits: Sequence[int]) -> "SparseState":
        index = 0
        for bit in bits:
            index = (index << 1) | (int(bit) & 1)
        state = cls(len(bits))
        state._indices = state._index_array([index])
        state._amplitudes = np.ones(1, dtype=np.complex128)
        return state

    @classmethod
    def from_terms(cls, num_qubits: int,
                   terms: Dict[int, complex]) -> "SparseState":
        """Build from {basis index: amplitude}; normalises."""
        if not terms:
            raise SimulationError("from_terms needs at least one term")
        amplitudes = np.array(list(terms.values()), dtype=np.complex128)
        norm = np.linalg.norm(amplitudes)
        if norm < _ATOL:
            raise SimulationError("cannot normalise the zero vector")
        state = cls(num_qubits)
        state._indices = state._index_array(list(terms.keys()))
        state._amplitudes = amplitudes / norm
        state._merge()
        return state

    @classmethod
    def from_dense(cls, dense) -> "SparseState":
        """Convert a :class:`StateVector` (or amplitude array)."""
        amplitudes = np.asarray(
            getattr(dense, "amplitudes", dense), dtype=np.complex128
        )
        num_qubits = int(round(math.log2(amplitudes.shape[0])))
        nonzero = np.nonzero(np.abs(amplitudes) > _PRUNE)[0]
        state = cls(num_qubits)
        state._indices = state._index_array(nonzero.tolist())
        state._amplitudes = amplitudes[nonzero]
        return state

    def copy(self) -> "SparseState":
        clone = SparseState(self.num_qubits)
        clone._indices = self._indices.copy()
        clone._amplitudes = self._amplitudes.copy()
        return clone

    # -- inspection -----------------------------------------------------------

    @property
    def num_terms(self) -> int:
        return int(self._indices.shape[0])

    def terms(self) -> Dict[int, complex]:
        return {index: complex(amplitude)
                for index, amplitude in zip(self.iter_ints(),
                                            self._amplitudes)}

    def to_dense(self):
        """Dense :class:`StateVector` (small registers only)."""
        from repro.simulators.statevector import StateVector

        if self.num_qubits > 26:
            raise SimulationError(
                f"refusing to densify {self.num_qubits} qubits"
            )
        dense = np.zeros(2**self.num_qubits, dtype=np.complex128)
        for index, amplitude in zip(self.iter_ints(), self._amplitudes):
            dense[index] = amplitude
        return StateVector(self.num_qubits, dense)

    # -- gate application --------------------------------------------------------

    def apply_gate(self, gate: Gate, qubits: Sequence[int]) -> None:
        """Apply a gate, using a fast path when one exists."""
        for qubit in qubits:
            self._check_qubit(qubit)
        if len(set(qubits)) != len(qubits):
            raise SimulationError(f"duplicate qubits {qubits}")
        name = gate.name
        if name == "I":
            return
        if name == "X":
            self._flip_all(qubits[0])
        elif name == "Z":
            self._amplitudes = self._amplitudes * (
                1.0 - 2.0 * self._bit(qubits[0])
            )
        elif name == "Y":
            bit = self._bit(qubits[0])
            self._amplitudes = self._amplitudes * (1j * (1.0 - 2.0 * bit))
            self._flip_all(qubits[0])
        elif name in ("S", "S_DG", "T", "T_DG", "RZ", "GPHASE"):
            self._apply_diagonal_single(gate, qubits[0])
        elif name == "CNOT":
            self._flip_where(self._bit(qubits[0]), qubits[1])
        elif name == "CZ":
            both = self._bit(qubits[0]) * self._bit(qubits[1])
            self._amplitudes = self._amplitudes * (1.0 - 2.0 * both)
        elif name in ("CS", "CS_DG"):
            both = self._bit(qubits[0]) * self._bit(qubits[1])
            phase = 1j if name == "CS" else -1j
            factor = np.where(both == 1, phase, 1.0 + 0.0j)
            self._amplitudes = self._amplitudes * factor
        elif name == "SWAP":
            differ = self._bit(qubits[0]) ^ self._bit(qubits[1])
            self._flip_where(differ, qubits[0])
            self._flip_where(differ, qubits[1])
        elif name == "TOFFOLI":
            both = self._bit(qubits[0]) * self._bit(qubits[1])
            self._flip_where(both, qubits[2])
        elif name == "CCZ":
            triple = (self._bit(qubits[0]) * self._bit(qubits[1])
                      * self._bit(qubits[2]))
            self._amplitudes = self._amplitudes * (1.0 - 2.0 * triple)
        elif name == "FREDKIN":
            differ = self._bit(qubits[0]) * (
                self._bit(qubits[1]) ^ self._bit(qubits[2])
            )
            self._flip_where(differ, qubits[1])
            self._flip_where(differ, qubits[2])
        elif name == "H":
            self._apply_hadamard(qubits[0])
        else:
            self._apply_generic(gate.matrix, qubits)

    def _apply_diagonal_single(self, gate: Gate, qubit: int) -> None:
        diagonal = np.diag(gate.matrix)
        if not np.allclose(gate.matrix, np.diag(diagonal), atol=_ATOL):
            self._apply_generic(gate.matrix, [qubit])
            return
        bit = self._bit(qubit)
        factor = np.where(bit == 1, diagonal[1], diagonal[0])
        self._amplitudes = self._amplitudes * factor

    def _apply_hadamard(self, qubit: int) -> None:
        bit = self._bit(qubit)
        sq2 = 1.0 / math.sqrt(2.0)
        # H: |b> -> (|0> + (-1)^b |1>)/sqrt2.  The same-index component
        # keeps sign (+ for b=0, - for b=1); the flipped component is
        # always +.
        stay_amp = self._amplitudes * sq2 * (1.0 - 2.0 * bit)
        flip_amp = self._amplitudes * sq2
        flipped = self._indices.copy()
        col, _, mask = self._position(qubit)
        flipped[:, col] ^= mask
        self._indices = np.concatenate([self._indices, flipped], axis=0)
        self._amplitudes = np.concatenate([stay_amp, flip_amp])
        self._merge()

    def _apply_generic(self, matrix: np.ndarray,
                       qubits: Sequence[int]) -> None:
        k = len(qubits)
        if matrix.shape != (2**k, 2**k):
            raise SimulationError("matrix shape mismatch")
        # Local value of each term (big-endian over the listed qubits).
        local = np.zeros(self.num_terms, dtype=np.int64)
        for qubit in qubits:
            local = (local << 1) | self._bit(qubit)
        base = self._indices.copy()
        for qubit in qubits:
            col, _, mask = self._position(qubit)
            base[:, col] &= ~mask
        pieces_idx: List[np.ndarray] = []
        pieces_amp: List[np.ndarray] = []
        for out_value in range(2**k):
            coeffs = matrix[out_value, local]
            active = np.abs(coeffs) > _PRUNE
            if not np.any(active):
                continue
            out_index = base[active].copy()
            for position, qubit in enumerate(qubits):
                if (out_value >> (k - 1 - position)) & 1:
                    col, _, mask = self._position(qubit)
                    out_index[:, col] |= mask
            pieces_idx.append(out_index)
            pieces_amp.append(self._amplitudes[active] * coeffs[active])
        if not pieces_idx:
            raise SimulationError("gate produced the zero state")
        self._indices = np.concatenate(pieces_idx, axis=0)
        self._amplitudes = np.concatenate(pieces_amp)
        self._merge()

    def apply_pauli(self, pauli: PauliString) -> None:
        if pauli.num_qubits != self.num_qubits:
            raise SimulationError("PauliString size mismatch")
        from repro.circuits import gates as gate_lib

        for qubit in pauli.support():
            self.apply_gate(gate_lib.PAULI_GATES[pauli.kind_at(qubit)],
                            [qubit])
        offset = pauli.phase_offset()
        if offset:
            self._amplitudes = self._amplitudes * (1j**offset)

    def apply_circuit(self, circuit: Circuit,
                      qubits: Optional[Sequence[int]] = None) -> None:
        if circuit.has_measurements:
            raise SimulationError(
                "apply_circuit handles unitary circuits only"
            )
        if qubits is None:
            mapping = list(range(circuit.num_qubits))
        else:
            mapping = list(qubits)
            if len(mapping) != circuit.num_qubits:
                raise SimulationError("qubit mapping size mismatch")
        for op in circuit.operations:
            assert isinstance(op, GateOp)
            if op.condition is not None:
                raise SimulationError("conditioned gate in unitary context")
            self.apply_gate(op.gate, [mapping[q] for q in op.qubits])

    def _merge(self) -> None:
        """Combine duplicate indices and prune negligible terms.

        Row deduplication goes through :func:`numpy.lexsort` over the
        uint64 columns plus a run-length reduction — orders of
        magnitude faster than ``np.unique(axis=0)``, whose void-view
        argsort dominates wide-register simulations.
        """
        if self.num_terms > 1:
            if self._cols == 1:
                unique, inverse = np.unique(self._indices[:, 0],
                                            return_inverse=True)
                if unique.shape[0] != self._indices.shape[0]:
                    summed = np.zeros(unique.shape[0],
                                      dtype=np.complex128)
                    np.add.at(summed, inverse, self._amplitudes)
                    self._indices = unique.reshape(-1, 1)
                    self._amplitudes = summed
            else:
                order = np.lexsort(
                    tuple(self._indices[:, col]
                          for col in range(self._cols))
                )
                sorted_idx = self._indices[order]
                sorted_amp = self._amplitudes[order]
                boundary = np.any(sorted_idx[1:] != sorted_idx[:-1],
                                  axis=1)
                if boundary.all():
                    self._indices = sorted_idx
                    self._amplitudes = sorted_amp
                else:
                    group = np.concatenate(
                        [[0], np.cumsum(boundary)]
                    )
                    count = int(group[-1]) + 1
                    summed = np.zeros(count, dtype=np.complex128)
                    np.add.at(summed, group, sorted_amp)
                    first = np.concatenate([[True], boundary])
                    self._indices = sorted_idx[first]
                    self._amplitudes = summed
        keep = np.abs(self._amplitudes) > _PRUNE
        if not np.all(keep):
            self._indices = self._indices[keep]
            self._amplitudes = self._amplitudes[keep]
        if self.num_terms == 0:
            raise SimulationError("state collapsed to zero")

    # -- readout -----------------------------------------------------------------

    def probability_of_outcome(self, qubit: int, outcome: int) -> float:
        self._check_qubit(qubit)
        mask = self._bit(qubit) == outcome
        return float(np.sum(np.abs(self._amplitudes[mask]) ** 2))

    def expectation_z(self, qubit: int) -> float:
        signs = 1.0 - 2.0 * self._bit(qubit)
        return float(np.sum(signs * np.abs(self._amplitudes) ** 2))

    def expectation_pauli(self, pauli: PauliString) -> complex:
        scratch = self.copy()
        scratch.apply_pauli(pauli)
        return self.inner(scratch)

    def project(self, qubit: int, outcome: int) -> float:
        keep = self._bit(qubit) == outcome
        probability = float(np.sum(np.abs(self._amplitudes[keep]) ** 2))
        if probability < _ATOL:
            raise SimulationError(
                f"projection of qubit {qubit} onto |{outcome}> has zero "
                "probability"
            )
        self._indices = self._indices[keep]
        self._amplitudes = self._amplitudes[keep] / math.sqrt(probability)
        return probability

    def measure(self, qubit: int,
                rng: Optional[np.random.Generator] = None) -> int:
        if rng is None:
            rng = np.random.default_rng()
        p_one = self.probability_of_outcome(qubit, 1)
        outcome = int(rng.random() < p_one)
        self.project(qubit, outcome)
        return outcome

    # -- register management --------------------------------------------------------

    def allocate(self, count: int = 1) -> List[int]:
        """Append ``count`` fresh |0> qubits (indices shift left)."""
        if count < 1:
            raise SimulationError("allocate needs a positive count")
        if self.num_qubits + count > _MAX_QUBITS:
            raise SimulationError(
                f"register would exceed {_MAX_QUBITS} qubits"
            )
        new = list(range(self.num_qubits, self.num_qubits + count))
        self.num_qubits += count
        new_cols = _columns_for(self.num_qubits)
        self._indices = self._shifted_columns(self._indices, count,
                                              new_cols)
        self._cols = new_cols
        return new

    def release(self, qubits: Sequence[int]) -> None:
        """Remove qubits that are deterministically |0> (vectorised)."""
        for qubit in sorted(set(qubits), reverse=True):
            self._check_qubit(qubit)
            if self.probability_of_outcome(qubit, 1) > 1e-9:
                raise SimulationError(
                    f"cannot release qubit {qubit}: not in |0>"
                )
            pos = self.num_qubits - 1 - qubit
            col, bit = divmod(pos, _WORD)
            matrix = self._indices
            cols = self._cols
            # Low part: bits strictly below the removed position.
            low = matrix.copy()
            low[:, col] &= np.uint64((1 << bit) - 1)
            low[:, col + 1:] = 0
            # High part: bits above, shifted right by one overall.
            high = matrix.copy()
            high[:, col] &= ~np.uint64((1 << (bit + 1)) - 1)
            high[:, :col] = 0
            shifted = np.zeros_like(high)
            for j in range(cols):
                shifted[:, j] = high[:, j] >> _ONE
                if j + 1 < cols:
                    shifted[:, j] |= (high[:, j + 1] & _ONE) \
                        << np.uint64(_WORD - 1)
            self.num_qubits -= 1
            new_cols = _columns_for(self.num_qubits)
            combined = shifted | low
            self._indices = combined[:, :new_cols]
            self._cols = new_cols
            self._merge()
            norm = np.linalg.norm(self._amplitudes)
            self._amplitudes = self._amplitudes / norm

    def keep_only(self, qubits: Sequence[int]) -> None:
        """Project every other qubit onto its dominant outcome and
        drop it, keeping the listed qubits in the given order.

        One vectorised repacking pass instead of per-qubit
        project/release cycles — the fast path for simulation-side
        garbage collection of exhausted ancilla registers.  Only valid
        when the kept qubits are (to numerical accuracy) disentangled
        from the dropped ones; with entanglement present the kept
        state is the post-selected branch.
        """
        keep = list(qubits)
        if len(set(keep)) != len(keep):
            raise SimulationError("duplicate qubits in keep_only")
        keep_set = set(keep)
        for qubit in range(self.num_qubits):
            if qubit in keep_set:
                continue
            outcome = int(self.probability_of_outcome(qubit, 1) > 0.5)
            self.project(qubit, outcome)
        new_count = len(keep)
        new_cols = _columns_for(new_count)
        new_indices = np.zeros((self.num_terms, new_cols),
                               dtype=np.uint64)
        for position, qubit in enumerate(keep):
            bit_pos = new_count - 1 - position
            col, bit = divmod(bit_pos, _WORD)
            new_indices[:, col] |= self._bit(qubit).astype(np.uint64) \
                << np.uint64(bit)
        self.num_qubits = new_count
        self._cols = new_cols
        self._indices = new_indices
        self._merge()
        norm = np.linalg.norm(self._amplitudes)
        self._amplitudes = self._amplitudes / norm

    # -- comparison -------------------------------------------------------------------

    def inner(self, other: "SparseState") -> complex:
        if self.num_qubits != other.num_qubits:
            raise SimulationError("inner: size mismatch")
        mine = {index: amplitude
                for index, amplitude in zip(self.iter_ints(),
                                            self._amplitudes)}
        total = 0.0 + 0.0j
        for index, amplitude in zip(other.iter_ints(),
                                    other._amplitudes):
            conjugate = mine.get(index)
            if conjugate is not None:
                total += np.conj(conjugate) * amplitude
        return complex(total)

    def fidelity(self, other: "SparseState") -> float:
        return abs(self.inner(other)) ** 2

    def equals(self, other: "SparseState", *,
               up_to_global_phase: bool = True, atol: float = 1e-7) -> bool:
        if self.num_qubits != other.num_qubits:
            return False
        if up_to_global_phase:
            return bool(abs(1.0 - self.fidelity(other)) < atol)
        difference = self.terms()
        for index, amplitude in other.terms().items():
            difference[index] = difference.get(index, 0.0) - amplitude
        return all(abs(v) < atol for v in difference.values())

    def _packed_values(self, qubits: Sequence[int]) -> np.ndarray:
        """Per-term big-endian value of the listed qubits (vectorised,
        requires len(qubits) <= 63)."""
        if len(qubits) > 63:
            raise SimulationError("packed value limited to 63 qubits")
        values = np.zeros(self.num_terms, dtype=np.int64)
        for qubit in qubits:
            values = (values << 1) | self._bit(qubit)
        return values

    def block_overlap(self, block_qubits: Sequence[int],
                      block_state: "SparseState") -> float:
        """<psi| (|phi><phi|_block (x) I_rest) |psi>.

        The figure of merit for gadget outputs: it equals 1 exactly
        when the listed block is in the pure state ``block_state`` and
        is disentangled from everything else (junk registers may stay
        arbitrarily entangled among themselves).
        """
        if block_state.num_qubits != len(block_qubits):
            raise SimulationError("block state size mismatch")
        for qubit in block_qubits:
            self._check_qubit(qubit)
        phi = {index: complex(amplitude)
               for index, amplitude in zip(block_state.iter_ints(),
                                           block_state._amplitudes)}
        block_values = self._packed_values(block_qubits)
        # Rest key: the full index with the block bits cleared.
        rest = self._indices.copy()
        for qubit in block_qubits:
            col, _, mask = self._position(qubit)
            rest[:, col] &= ~mask
        coefficients = np.array(
            [phi.get(int(value), 0.0) for value in block_values],
            dtype=np.complex128,
        )
        contributing = coefficients != 0.0
        if not np.any(contributing):
            return 0.0
        rest = rest[contributing]
        weights = (np.conj(coefficients[contributing])
                   * self._amplitudes[contributing])
        order = np.lexsort(
            tuple(rest[:, col] for col in range(rest.shape[1]))
        )
        rest = rest[order]
        weights = weights[order]
        if rest.shape[0] > 1:
            boundary = np.any(rest[1:] != rest[:-1], axis=1)
            group = np.concatenate([[0], np.cumsum(boundary)])
        else:
            group = np.zeros(1, dtype=np.int64)
        sums = np.zeros(int(group[-1]) + 1, dtype=np.complex128)
        np.add.at(sums, group, weights)
        return float(np.sum(np.abs(sums) ** 2))

    def tensor(self, other: "SparseState") -> "SparseState":
        """self (x) other (other's qubits appended after self's)."""
        total_qubits = self.num_qubits + other.num_qubits
        result = SparseState(total_qubits)
        shift = other.num_qubits
        if result._cols == 1:
            left = self._indices[:, 0].astype(np.uint64)[:, None] \
                << np.uint64(shift)
            combined = left | other._indices[:, 0][None, :]
            amplitude_grid = (self._amplitudes[:, None]
                              * other._amplitudes[None, :])
            result._indices = combined.reshape(-1, 1)
            result._amplitudes = amplitude_grid.reshape(-1)
            return result
        # Wide case: shift our columns into place, widen the other's,
        # then broadcast-OR the two column matrices.
        left = self._shifted_columns(self._indices, shift, result._cols)
        right = np.zeros((other.num_terms, result._cols),
                         dtype=np.uint64)
        right[:, :other._cols] = other._indices
        combined = left[:, None, :] | right[None, :, :]
        amplitude_grid = (self._amplitudes[:, None]
                          * other._amplitudes[None, :])
        result._indices = combined.reshape(-1, result._cols)
        result._amplitudes = amplitude_grid.reshape(-1)
        return result

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(
                f"qubit {qubit} out of range [0, {self.num_qubits})"
            )

    def __repr__(self) -> str:
        return (
            f"SparseState(num_qubits={self.num_qubits}, "
            f"terms={self.num_terms})"
        )
