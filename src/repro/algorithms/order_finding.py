"""Order finding (the quantum core of Shor's algorithm) on ensembles.

Paper Sec. 2, case (1): Shor's algorithm measures a phase-estimation
register, classically post-processes the outcome (continued fractions)
into a candidate order r, and verifies a^r = 1 (mod N).  Gershenfeld-
Chuang observed the verification can be folded into the quantum
algorithm; the paper's addition is that this is *not sufficient* —
computers holding "bad" candidates still interfere with the ensemble
readout — and prescribes the randomizing-bad-results strategy: after
in-circuit verification, bad computers overwrite their candidate with
random data, so on average only the good computers contribute signal.

The quantum part is real: a phase-estimation circuit over an exact
modular-multiplication permutation gate, inverse QFT included, run on
the dense simulator; each ensemble member then samples its own
collapse from the resulting distribution, and the classical pipeline
(continued fractions -> candidate -> verify -> maybe randomize) runs
member-wise, exactly as a coherent in-circuit implementation would act
branch-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

import numpy as np

from repro.circuits import Circuit, gates
from repro.circuits.gates import Gate
from repro.ensemble.strategies import (
    ClassicalEnsemble,
    randomize_bad_results,
    read_randomized_output,
)
from repro.exceptions import ReproError
from repro.simulators.statevector import run_unitary


def multiplicative_order(a: int, modulus: int) -> int:
    """The order of a modulo ``modulus`` (brute force; small N)."""
    if math.gcd(a, modulus) != 1:
        raise ReproError(f"{a} and {modulus} are not coprime")
    value = a % modulus
    order = 1
    while value != 1:
        value = (value * a) % modulus
        order += 1
    return order


def modular_multiplication_gate(a: int, modulus: int,
                                num_qubits: int) -> Gate:
    """The permutation |x> -> |a x mod N> (identity for x >= N)."""
    if modulus > 2**num_qubits:
        raise ReproError("modulus does not fit the register")
    if math.gcd(a, modulus) != 1:
        raise ReproError("multiplier must be coprime to the modulus")
    dim = 2**num_qubits
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for x in range(dim):
        target = (a * x) % modulus if x < modulus else x
        matrix[target, x] = 1.0
    return Gate(f"MULMOD", matrix, num_qubits, params=(float(a),
                                                       float(modulus)))


def inverse_qft_circuit(num_qubits: int) -> Circuit:
    """Inverse quantum Fourier transform (big-endian register)."""
    circuit = Circuit(num_qubits, name=f"iqft{num_qubits}")
    for target in range(num_qubits):
        for control in range(target):
            angle = -math.pi / (2 ** (target - control))
            circuit.add_gate(gates.rz(angle).controlled(),
                             control, target)
        circuit.add_gate(gates.H, target)
    # Bit-reversal to restore standard ordering.
    for low in range(num_qubits // 2):
        circuit.add_gate(gates.SWAP, low, num_qubits - 1 - low)
    return circuit


def order_finding_circuit(a: int, modulus: int,
                          counting_bits: int) -> Circuit:
    """Phase estimation of the modular-multiplication operator.

    Counting register: qubits 0..t-1; work register holds |1> and is
    driven by controlled U^(2^k) powers; inverse QFT on the counting
    register.  No measurement — ensemble-safe.
    """
    work_bits = max(1, math.ceil(math.log2(modulus)))
    total = counting_bits + work_bits
    circuit = Circuit(total, name=f"order_finding(a={a},N={modulus})")
    for qubit in range(counting_bits):
        circuit.add_gate(gates.H, qubit)
    # Work register to |...01>.
    circuit.add_gate(gates.X, total - 1)
    work = tuple(range(counting_bits, total))
    for exponent in range(counting_bits):
        # Counting qubit t-1-exponent controls U^(2^exponent): the
        # least significant counting bit applies U once.
        power = pow(a, 2**exponent, modulus)
        gate = modular_multiplication_gate(power, modulus, work_bits)
        control = counting_bits - 1 - exponent
        circuit.add_gate(gate.controlled(), control, *work)
    circuit.compose(inverse_qft_circuit(counting_bits),
                    qubits=list(range(counting_bits)))
    return circuit


def phase_estimate_distribution(a: int, modulus: int,
                                counting_bits: int) -> np.ndarray:
    """Exact outcome distribution of the counting register."""
    circuit = order_finding_circuit(a, modulus, counting_bits)
    state = run_unitary(circuit)
    probabilities = state.probabilities()
    work_bits = circuit.num_qubits - counting_bits
    reshaped = probabilities.reshape(2**counting_bits, 2**work_bits)
    return reshaped.sum(axis=1)


def candidate_order_from_sample(y: int, counting_bits: int,
                                modulus: int) -> Optional[int]:
    """Continued-fraction post-processing of one measured value."""
    if y == 0:
        return None
    fraction = Fraction(y, 2**counting_bits).limit_denominator(modulus)
    candidate = fraction.denominator
    return candidate if candidate >= 1 else None


def verify_order(a: int, candidate: Optional[int], modulus: int) -> bool:
    """The in-circuit verification: a^candidate = 1 (mod N)."""
    if candidate is None or candidate < 1:
        return False
    return pow(a, candidate, modulus) == 1


@dataclass
class EnsembleOrderFindingReport:
    """Outcome of the ensemble order-finding experiment.

    Attributes:
        true_order: the actual multiplicative order of a mod N.
        good_fraction: computers whose candidate verified.
        naive_bits: readout of the candidate register WITHOUT
            randomizing bad results (None entries = smeared signal).
        randomized_bits: readout after the randomizing-bad-results
            strategy.
        recovered_order: the decoded order (None when unreadable).
    """

    true_order: int
    good_fraction: float
    naive_bits: List[Optional[int]]
    randomized_bits: Optional[List[int]]

    @property
    def recovered_order(self) -> Optional[int]:
        if self.randomized_bits is None:
            return None
        value = 0
        for bit in self.randomized_bits:
            value = (value << 1) | bit
        return value

    @property
    def naive_succeeded(self) -> bool:
        if any(bit is None for bit in self.naive_bits):
            return False
        value = 0
        for bit in self.naive_bits:
            value = (value << 1) | bit
        return value == self.true_order

    @property
    def randomized_succeeded(self) -> bool:
        return self.recovered_order == self.true_order


def run_ensemble_order_finding(a: int, modulus: int,
                               counting_bits: int,
                               num_computers: int = 8192,
                               seed: Optional[int] = None
                               ) -> EnsembleOrderFindingReport:
    """The full Sec. 2 Shor-type ensemble experiment.

    1. run the (real, simulated) phase-estimation circuit once for the
       exact outcome distribution;
    2. each ensemble member samples its collapse, post-processes it to
       a candidate order, and verifies it — all steps a coherent
       implementation performs branch-wise;
    3. compare the naive readout of the candidate register against the
       randomizing-bad-results readout.
    """
    rng = np.random.default_rng(seed)
    distribution = phase_estimate_distribution(a, modulus, counting_bits)
    true_order = multiplicative_order(a, modulus)
    register_width = max(1, math.ceil(math.log2(modulus + 1)))
    samples = rng.choice(len(distribution), size=num_computers,
                         p=distribution)
    rows = np.zeros((num_computers, register_width + 1), dtype=np.uint8)
    good = 0
    for row_index, y in enumerate(samples):
        candidate = candidate_order_from_sample(int(y), counting_bits,
                                                modulus)
        verified = verify_order(a, candidate, modulus)
        if verified:
            good += 1
        value = candidate or 0
        for bit in range(register_width):
            rows[row_index, bit] = (value >> (register_width - 1 - bit)) & 1
        rows[row_index, register_width] = int(verified)
    ensemble = ClassicalEnsemble(rows)
    naive_bits = ensemble.read_bits()[:register_width]
    output_bits = list(range(register_width))
    verified_column = register_width
    randomized, good_fraction = randomize_bad_results(
        ensemble,
        is_good=lambda row: bool(row[verified_column]),
        output_bits=output_bits,
        rng=rng,
    )
    randomized_bits = read_randomized_output(
        randomized, output_bits, good_fraction_floor=good_fraction * 0.5
        if good_fraction > 0 else 0.05,
    )
    return EnsembleOrderFindingReport(
        true_order=true_order,
        good_fraction=good / num_computers,
        naive_bits=naive_bits,
        randomized_bits=randomized_bits,
    )
