"""The ensemble quantum computer model.

An :class:`EnsembleMachine` is a macroscopic number of identical
quantum computers executing the *same* program (the NMR bulk model of
Cory-Fahmy-Havel and Gershenfeld-Chuang, as formalised in the paper's
Sec. 1-2).  Its defining restrictions, enforced here:

* **No single-computer measurement.**  Submitting a circuit containing
  a :class:`~repro.circuits.circuit.MeasureOp`, :class:`~repro.circuits.
  circuit.ResetOp` or a classically-conditioned gate raises
  :class:`~repro.exceptions.EnsembleViolationError` — there is no
  physical mechanism to address one molecule.
* **Expectation-only readout.**  The only output is, per qubit, a
  signal proportional to <Z_q> over the whole ensemble (plus shot
  noise), produced by :class:`~repro.ensemble.readout.EnsembleReadout`.

For demonstrations of *why* naive protocols fail, the machine also
offers :meth:`run_with_internal_collapse`: the circuit's measurements
physically happen inside every molecule (decoherence does that for
free), but the per-molecule outcomes remain inaccessible — only the
averaged signal comes back.  This reproduces the paper's teleportation
and RNG impossibility arguments quantitatively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.circuits.circuit import Circuit
from repro.ensemble.readout import EnsembleReadout, ReadoutSignal
from repro.exceptions import EnsembleViolationError
from repro.simulators.statevector import StatevectorSimulator, StateVector

def _prepare_state(num_qubits: int, initial_state):
    """Coerce the initial state to the sparse engine.

    The ensemble programs of interest (fault-tolerant gadgets) span
    far more qubits than a dense vector can hold, and they stay sparse
    in the computational basis, so the sparse engine is the default.
    """
    from repro.simulators.sparse import SparseState

    if initial_state is None:
        return SparseState(num_qubits)
    if isinstance(initial_state, SparseState):
        return initial_state.copy()
    if isinstance(initial_state, StateVector):
        return SparseState.from_dense(initial_state)
    raise EnsembleViolationError(
        f"unsupported initial state type {type(initial_state)!r}"
    )


@dataclass
class EnsembleRun:
    """Result of running a program on the ensemble.

    Attributes:
        signals: one :class:`ReadoutSignal` per qubit.
        state: the (pure, sparse) post-circuit state shared by all
            computers when the program was measurement-free; None when
            internal collapse made per-computer states differ.
    """

    signals: List[ReadoutSignal]
    state: Optional[object] = None

    def expectation(self, qubit: int) -> float:
        return self.signals[qubit].expectation

    def observed(self, qubit: int) -> float:
        return self.signals[qubit].observed

    def infer_bits(self, confidence_sigmas: float = 5.0
                   ) -> List[Optional[int]]:
        return [s.infer_bit(confidence_sigmas) for s in self.signals]


class EnsembleMachine:
    """An ensemble of identical quantum computers.

    Args:
        num_qubits: qubits per computer.
        ensemble_size: number of computers (sets the shot-noise floor).
        seed: RNG seed for readout noise and internal-collapse samples.
        noiseless_readout: report exact expectations (for unit tests).
    """

    def __init__(self, num_qubits: int, ensemble_size: int = 10**6,
                 seed: Optional[int] = None,
                 noiseless_readout: bool = False) -> None:
        self.num_qubits = num_qubits
        self.ensemble_size = ensemble_size
        self._rng = np.random.default_rng(seed)
        self._readout = EnsembleReadout(
            ensemble_size=ensemble_size,
            rng=self._rng,
            noiseless=noiseless_readout,
        )

    # -- the legal ensemble operation -----------------------------------

    def run(self, circuit: Circuit,
            initial_state: Optional[StateVector] = None) -> EnsembleRun:
        """Execute an ensemble-safe program and read all qubits.

        Raises:
            EnsembleViolationError: if the circuit measures, resets or
                classically conditions — operations that require
                addressing individual computers.
        """
        self._check_program(circuit)
        state = _prepare_state(circuit.num_qubits, initial_state)
        state.apply_circuit(circuit)
        expectations = [
            state.expectation_z(q) for q in range(circuit.num_qubits)
        ]
        signals = self._readout.observe_all(expectations)
        return EnsembleRun(signals=signals, state=state)

    # -- the physical process behind a forbidden program ------------------

    def run_with_internal_collapse(self, circuit: Circuit,
                                   initial_state: Optional[StateVector] = None,
                                   sample_computers: int = 2048
                                   ) -> EnsembleRun:
        """Let measurements *happen* inside each molecule, unread.

        Decoherence performs the measurement physically in every
        computer, with independent random outcomes, but no apparatus
        reports them.  We simulate ``sample_computers`` members (a
        statistical stand-in for the macroscopic ensemble), average
        their final <Z_q>, and return only that signal — faithfully
        reproducing why a Bell-measurement teleportation yields a
        useless 50/50 signal on an ensemble machine (paper Sec. 2).
        """
        totals = np.zeros(circuit.num_qubits)
        simulator = StatevectorSimulator(
            seed=int(self._rng.integers(0, 2**63 - 1))
        )
        for _ in range(sample_computers):
            result = simulator.run(circuit, initial_state)
            for q in range(circuit.num_qubits):
                totals[q] += result.state.expectation_z(q)
        expectations = totals / sample_computers
        signals = self._readout.observe_all(list(expectations))
        return EnsembleRun(signals=signals, state=None)

    def _check_program(self, circuit: Circuit) -> None:
        if circuit.num_qubits > self.num_qubits:
            raise EnsembleViolationError(
                f"program needs {circuit.num_qubits} qubits, machine has "
                f"{self.num_qubits}"
            )
        if circuit.has_measurements:
            raise EnsembleViolationError(
                "single-computer measurements/resets are impossible on an "
                "ensemble quantum computer; restructure the protocol "
                "(see repro.ft for measurement-free fault tolerance)"
            )
        if circuit.has_classical_control:
            raise EnsembleViolationError(
                "classically-conditioned gates require per-computer "
                "measurement outcomes, which an ensemble cannot provide"
            )
