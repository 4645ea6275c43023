"""Algorithmic cooling: the ensemble substitute for qubit reset.

The paper (Sec. 2) notes that resetting a bit by measure-and-flip is
impossible on an ensemble machine and points at algorithmic cooling
[Schulman-Vazirani STOC'99; Boykin-Mor-Roychowdhury-Vatan-Vrijen PNAS
2002] as the substitute.  Every fresh |0> ancilla consumed by the
fault-tolerant gadgets of :mod:`repro.ft` is, on a real ensemble
machine, produced this way.  This module implements the machinery:

* the *bias* picture: a qubit with bias eps is the mixed state
  diag((1+eps)/2, (1-eps)/2); eps = 1 is a perfect |0>;
* :func:`compression_circuit` — the reversible 3-to-1 compression
  step (two CNOTs + a Toffoli) that concentrates three bias-eps
  qubits into one of bias (3 eps - eps^3)/2, in place;
* :class:`ClosedSystemCooler` — recursive Schulman-Vazirani cooling
  with no bath: bounded by entropy conservation (Shannon bound);
* :class:`HeatBathCooler` — PNAS-style heat-bath cooling: the hot
  junk qubits re-thermalise to the bath bias between rounds, beating
  the closed-system bound;
* bit-level Monte-Carlo and exact density-matrix validations of the
  analytic bias recursion.

The compression step's unitary nature matters: it is an ensemble-legal
program (no measurement, no reset inside), verified by running it on
an :class:`~repro.ensemble.machine.EnsembleMachine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.circuits import Circuit, gates
from repro.exceptions import ReproError


def compression_circuit() -> Circuit:
    """The in-place 3-bit compression step.

    CNOT(a -> b), CNOT(a -> c), Toffoli(b, c -> a) computes
    a <- MAJ(a, b, c): after the CNOTs, b and c hold (b XOR a) and
    (c XOR a), which are both 1 exactly when b = c = NOT a — the only
    case where the majority differs from a.

    Qubit 0 comes out colder (bias (3 eps - eps^3)/2); qubits 1 and 2
    come out hotter and are either recursed on (closed system) or
    handed back to the bath (heat-bath cooling).
    """
    circuit = Circuit(3, name="compress3")
    circuit.add_gate(gates.CNOT, 0, 1)
    circuit.add_gate(gates.CNOT, 0, 2)
    circuit.add_gate(gates.TOFFOLI, 1, 2, 0)
    return circuit


def majority_bias(eps: float) -> float:
    """Bias of MAJ(b1, b2, b3) for three independent bias-eps bits."""
    if not -1.0 <= eps <= 1.0:
        raise ReproError(f"bias {eps} outside [-1, 1]")
    return (3.0 * eps - eps**3) / 2.0


def bias_after_rounds(eps: float, rounds: int) -> float:
    """Closed-form bias after ``rounds`` nested compression steps."""
    if rounds < 0:
        raise ReproError("rounds must be non-negative")
    value = eps
    for _ in range(rounds):
        value = majority_bias(value)
    return value


def shannon_bound_qubits(eps_initial: float, eps_target: float) -> float:
    """Entropy lower bound on qubits per cooled bit (closed system).

    A closed system cannot reduce total entropy: extracting one bit of
    bias eps_target from material of bias eps_initial needs at least
    (1 - h(eps_target)) / (1 - h(eps_initial)) ... inverted: the
    number of input qubits per output qubit is bounded below by the
    entropy-deficit ratio.
    """
    deficit_out = 1.0 - _binary_entropy((1 + eps_target) / 2)
    deficit_in = 1.0 - _binary_entropy((1 + eps_initial) / 2)
    if deficit_in <= 0:
        raise ReproError("initial bias carries no entropy deficit")
    return deficit_out / deficit_in


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@dataclass
class CoolingReport:
    """Outcome of a cooling schedule.

    Attributes:
        final_bias: bias of the coldest qubit produced.
        rounds: compression rounds applied.
        qubits_consumed: fresh bath/material qubits used per cold bit.
    """

    final_bias: float
    rounds: int
    qubits_consumed: int


class ClosedSystemCooler:
    """Recursive Schulman-Vazirani cooling without a bath.

    Each level-k cold bit is the compression of three level-(k-1)
    cold bits, so one level-r bit consumes 3^r raw qubits.
    """

    def __init__(self, raw_bias: float) -> None:
        if not 0.0 < raw_bias < 1.0:
            raise ReproError("raw bias must lie strictly in (0, 1)")
        self.raw_bias = raw_bias

    def cool(self, rounds: int) -> CoolingReport:
        return CoolingReport(
            final_bias=bias_after_rounds(self.raw_bias, rounds),
            rounds=rounds,
            qubits_consumed=3**rounds,
        )


class HeatBathCooler:
    """Heat-bath algorithmic cooling (PNAS 2002 flavour).

    The computation qubits are cooled by compression; the two heated
    qubits of every step are swapped out against *fresh bath qubits*
    at bias eps_b (physically: waiting a relaxation time re-polarises
    them).  Bias evolution for the coldest qubit:

        eps_{k+1} = (3 eps'_k - eps'^3_k)/2   with eps'_k built from
        bath-refreshed partners,

    modelled here in the standard simplified ladder: each round
    compresses (cold, bath, bath) triples, so
    eps_{k+1} = f(eps_k, eps_b) with
    f = (eps_k + eps_b + eps_b - eps_k eps_b^2) / 2 ... computed
    exactly from the majority distribution of independent biases.
    """

    def __init__(self, bath_bias: float) -> None:
        if not 0.0 < bath_bias < 1.0:
            raise ReproError("bath bias must lie strictly in (0, 1)")
        self.bath_bias = bath_bias

    @staticmethod
    def majority_bias_mixed(eps_a: float, eps_b: float,
                            eps_c: float) -> float:
        """Bias of MAJ of three independent bits of distinct biases."""
        probabilities = [(1 + eps) / 2 for eps in (eps_a, eps_b, eps_c)]
        total = 0.0
        for outcome in range(8):
            bits = [(outcome >> k) & 1 for k in range(3)]
            weight = 1.0
            for bit, probability in zip(bits, probabilities):
                weight *= probability if bit == 0 else 1 - probability
            if sum(bits) <= 1:  # majority says 0
                total += weight
        return 2.0 * total - 1.0

    def cool(self, rounds: int) -> CoolingReport:
        bias = self.bath_bias
        consumed = 1
        for _ in range(rounds):
            bias = self.majority_bias_mixed(bias, self.bath_bias,
                                            self.bath_bias)
            consumed += 2  # two bath qubits refreshed per round
        return CoolingReport(final_bias=bias, rounds=rounds,
                             qubits_consumed=consumed)

    def fixed_point(self, tolerance: float = 1e-12,
                    max_rounds: int = 10_000) -> float:
        """The limiting bias of the bath-refresh ladder."""
        bias = self.bath_bias
        for _ in range(max_rounds):
            next_bias = self.majority_bias_mixed(bias, self.bath_bias,
                                                 self.bath_bias)
            if abs(next_bias - bias) < tolerance:
                return next_bias
            bias = next_bias
        return bias


def simulate_compression(eps: Sequence[float], shots: int,
                         rng: Optional[np.random.Generator] = None
                         ) -> float:
    """Bit-level Monte-Carlo of one compression step.

    Samples three independent bits with the given biases, pushes them
    through the reversible circuit's truth table, and returns the
    empirical bias of the cold output.
    """
    if len(eps) != 3:
        raise ReproError("need exactly three biases")
    if rng is None:
        rng = np.random.default_rng()
    probabilities = [(1 + e) / 2 for e in eps]
    bits = np.stack([
        (rng.random(shots) >= p).astype(np.int64)  # 1 with prob 1-p
        for p in probabilities
    ])
    a, b, c = bits
    b = b ^ a
    c = c ^ a
    a = a ^ (b & c)
    return float(1.0 - 2.0 * a.mean())


def compression_density_matrix_bias(eps: Sequence[float]) -> float:
    """Exact bias of the cold output via density-matrix evolution.

    Validates that the *quantum circuit* (not just its truth table)
    performs the compression on product mixed states.
    """
    from repro.simulators.density_matrix import DensityMatrix

    if len(eps) != 3:
        raise ReproError("need exactly three biases")
    rho = np.array([[1.0]], dtype=np.complex128)
    for value in eps:
        rho = np.kron(rho, np.diag([(1 + value) / 2, (1 - value) / 2]))
    state = DensityMatrix(3, rho)
    state.apply_circuit(compression_circuit())
    return state.expectation_z(0)
