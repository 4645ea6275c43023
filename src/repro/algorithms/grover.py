"""Grover search with multiple solutions on ensemble machines.

Paper Sec. 2, case (2): when the database has several matching
entries, each computer in the ensemble collapses to a *different* hit,
and the bitwise expectation readout smears them together.  The fix
from [6]: every computer performs several searches and *sorts* its
hits, so with high probability all computers hold the same sorted
list and the readout is sharp.

The quantum part is implemented for real: oracle + diffusion iterates
on a dense state vector, giving the exact hit distribution each
computer samples from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits import Circuit, gates
from repro.circuits.gates import Gate
from repro.ensemble.strategies import ClassicalEnsemble, agreement_fraction
from repro.exceptions import ReproError
from repro.simulators.statevector import run_unitary


def oracle_gate(num_qubits: int, marked: Sequence[int]) -> Gate:
    """Phase oracle: |x> -> -|x> for marked x."""
    dim = 2**num_qubits
    diagonal = np.ones(dim, dtype=np.complex128)
    for index in marked:
        if not 0 <= index < dim:
            raise ReproError(f"marked index {index} out of range")
        diagonal[index] = -1.0
    return Gate("ORACLE", np.diag(diagonal), num_qubits)


def diffusion_gate(num_qubits: int) -> Gate:
    """Inversion about the mean: 2|s><s| - I."""
    dim = 2**num_qubits
    uniform = np.full((dim, dim), 2.0 / dim, dtype=np.complex128)
    return Gate("DIFFUSION", uniform - np.eye(dim), num_qubits)


def optimal_iterations(num_qubits: int, num_marked: int) -> int:
    """floor(pi/4 sqrt(N/M)) — the standard Grover iteration count."""
    if num_marked < 1:
        raise ReproError("need at least one marked item")
    ratio = (2**num_qubits) / num_marked
    return max(1, int(math.floor(math.pi / 4.0 * math.sqrt(ratio))))


def grover_circuit(num_qubits: int, marked: Sequence[int],
                   iterations: Optional[int] = None) -> Circuit:
    """The full Grover circuit (no measurement — ensemble-safe)."""
    if iterations is None:
        iterations = optimal_iterations(num_qubits, len(marked))
    circuit = Circuit(num_qubits, name=f"grover{num_qubits}")
    for qubit in range(num_qubits):
        circuit.add_gate(gates.H, qubit)
    oracle = oracle_gate(num_qubits, marked)
    diffusion = diffusion_gate(num_qubits)
    all_qubits = tuple(range(num_qubits))
    for _ in range(iterations):
        circuit.add_gate(oracle, *all_qubits)
        circuit.add_gate(diffusion, *all_qubits)
    return circuit


def hit_distribution(num_qubits: int, marked: Sequence[int],
                     iterations: Optional[int] = None) -> np.ndarray:
    """Exact outcome distribution after the Grover iterations."""
    state = run_unitary(grover_circuit(num_qubits, marked, iterations))
    return state.probabilities()


@dataclass
class EnsembleGroverReport:
    """Comparison of the naive and sorted ensemble strategies.

    Attributes:
        naive_readable_bits: bits of a single-search register the
            naive ensemble can read (None entries are smeared out).
        sorted_agreement: fraction of computers sharing the most
            common sorted hit list.
        sorted_readout: the decoded sorted list (None if unreadable).
        marked: the true solution set, for comparison.
    """

    naive_readable_bits: List[Optional[int]]
    sorted_agreement: float
    sorted_readout: Optional[List[int]]
    marked: Tuple[int, ...]

    @property
    def naive_decoded(self) -> Optional[int]:
        """The value the naive readout spells, when every bit is
        readable (sign-of-signal per bit)."""
        if any(bit is None for bit in self.naive_readable_bits):
            return None
        value = 0
        for bit in self.naive_readable_bits:
            value = (value << 1) | bit
        return value

    @property
    def naive_succeeded(self) -> bool:
        """Naive readout works only if it spells an actual solution.

        With several solutions the bitwise averages typically either
        smear below the noise floor (unreadable bits) or spell a
        bit-wise majority word that is not itself a solution — the
        paper's multiple-solutions failure mode.
        """
        decoded = self.naive_decoded
        return decoded is not None and decoded in self.marked

    @property
    def sorted_succeeded(self) -> bool:
        return self.sorted_readout is not None and \
            sorted(self.marked) == self.sorted_readout


def run_ensemble_grover(num_qubits: int, marked: Sequence[int],
                        num_computers: int = 4096,
                        searches_per_computer: Optional[int] = None,
                        seed: Optional[int] = None,
                        success_probability_floor: float = 0.999
                        ) -> EnsembleGroverReport:
    """Execute the multi-solution Grover experiment on an ensemble.

    Each computer samples hits from the exact Grover distribution (its
    own collapse), so this models the post-dephasing ensemble as a
    classical mixture — legitimate because the readout is diagonal.

    Args:
        num_qubits: search-space size 2**num_qubits.
        marked: solution indices (>= 2 for the interesting case).
        num_computers: ensemble size for the statistics.
        searches_per_computer: s repeated searches before sorting;
            default: enough that each computer sees every solution
            with probability >= success_probability_floor (coupon
            collector bound).
        seed: RNG seed.
    """
    rng = np.random.default_rng(seed)
    probabilities = hit_distribution(num_qubits, marked)
    marked = tuple(sorted(marked))
    if searches_per_computer is None:
        searches_per_computer = _coupon_searches(
            len(marked), success_probability_floor
        )
    # Naive strategy: one search per computer, read the raw bits.
    single = rng.choice(len(probabilities),
                        size=num_computers, p=probabilities)
    bits = ((single[:, None] >> np.arange(num_qubits - 1, -1, -1)) & 1)
    naive = ClassicalEnsemble(bits.astype(np.uint8))
    naive_bits = naive.read_bits()
    # Sorted strategy: s searches per computer, deduplicate and sort.
    samples = rng.choice(len(probabilities),
                         size=(num_computers, searches_per_computer),
                         p=probabilities)
    sorted_lists = [sorted(set(int(v) for v in row)) for row in samples]
    # Canonical fixed-width register: the first len(marked) sorted
    # hits (padded with 0) — computers that saw all solutions agree.
    width = len(marked)
    canonical = np.zeros((num_computers, width), dtype=np.int64)
    for row_index, hits in enumerate(sorted_lists):
        padded = (hits + [0] * width)[:width]
        canonical[row_index] = padded
    agreement = agreement_fraction(canonical)
    register_bits = _to_bits(canonical, num_qubits)
    ensemble = ClassicalEnsemble(register_bits)
    read = ensemble.read_bits()
    if any(bit is None for bit in read):
        decoded: Optional[List[int]] = None
    else:
        decoded = _from_bits(read, width, num_qubits)
    return EnsembleGroverReport(
        naive_readable_bits=naive_bits,
        sorted_agreement=agreement,
        sorted_readout=decoded,
        marked=marked,
    )


def _coupon_searches(num_marked: int, floor: float) -> int:
    searches = num_marked
    while True:
        miss = num_marked * (1.0 - 1.0 / num_marked) ** searches
        if miss < (1.0 - floor):
            return searches
        searches += 1


def _to_bits(values: np.ndarray, bits_per_value: int) -> np.ndarray:
    rows, width = values.shape
    out = np.zeros((rows, width * bits_per_value), dtype=np.uint8)
    for column in range(width):
        for bit in range(bits_per_value):
            out[:, column * bits_per_value + bit] = (
                values[:, column] >> (bits_per_value - 1 - bit)
            ) & 1
    return out


def _from_bits(bits: Sequence[int], width: int,
               bits_per_value: int) -> List[int]:
    values: List[int] = []
    for column in range(width):
        value = 0
        for bit in range(bits_per_value):
            value = (value << 1) | bits[column * bits_per_value + bit]
        values.append(value)
    return values
