"""Strategies that make algorithms ensemble-runnable (paper Sec. 2).

Three tools:

* :func:`delay_measurements` — the Gershenfeld-Chuang transform:
  replace "measure qubit, then classically apply U" with a coherent
  controlled-U.  This is the *existing* strategy the paper reviews; it
  works only when the controlled gate is actually available, which is
  exactly where standard fault-tolerant gate sets break down (the
  catch-22 the paper's Sec. 4 resolves).
* :class:`ClassicalEnsemble` + :func:`randomize_bad_results` — the
  paper's fix for Shor-type algorithms: after in-circuit verification,
  computers holding a *bad* candidate overwrite it with random data so
  that, on average, only the good computers contribute signal.
* :func:`sort_results` — the paper's fix for multi-solution Grover:
  every computer performs several searches and sorts its hits, so with
  high probability all computers hold the *same* sorted list and the
  ensemble readout is sharp.

A dephased ensemble of measurement outcomes *is* a classical mixture,
so :class:`ClassicalEnsemble` legitimately models the post-algorithm
ensemble with one classical register per computer; all subsequent
(reversible) classical processing acts member-wise.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit, GateOp, MeasureOp, ResetOp
from repro.ensemble.readout import EnsembleReadout, ReadoutSignal
from repro.exceptions import EnsembleViolationError


# ---------------------------------------------------------------------------
# Measurement delaying (the reviewed, pre-existing strategy)
# ---------------------------------------------------------------------------

def delay_measurements(circuit: Circuit) -> Circuit:
    """Rewrite measure-then-classically-control into coherent control.

    Every ``measure(q -> c)`` is deleted and every later gate
    conditioned on ``c`` becomes a quantum-controlled gate with control
    ``q`` (conditions on value 0 are handled by conjugating the control
    with X).  The result is ensemble-safe.

    Raises:
        EnsembleViolationError: if a condition spans several bits, a
            classical bit is used before being written, or a qubit is
            reused after its measurement was deleted in a way that
            would change semantics (a gate re-touches the control).
    """
    result = Circuit(circuit.num_qubits, 0,
                     name=f"{circuit.name}_delayed" if circuit.name else "")
    measured_source: dict = {}
    retouched: set = set()
    for op in circuit.operations:
        if isinstance(op, MeasureOp):
            if op.clbit in measured_source:
                raise EnsembleViolationError(
                    f"classical bit {op.clbit} written twice; cannot "
                    "delay measurements"
                )
            measured_source[op.clbit] = op.qubit
            continue
        if isinstance(op, ResetOp):
            raise EnsembleViolationError(
                "reset cannot be delayed; use algorithmic cooling"
            )
        assert isinstance(op, GateOp)
        if op.condition is None:
            for qubit in op.qubits:
                if qubit in measured_source.values():
                    retouched.add(qubit)
            result.add_gate(op.gate, *op.qubits, tag=op.tag)
            continue
        if len(op.condition.bits) != 1:
            raise EnsembleViolationError(
                "only single-bit conditions can be delayed mechanically"
            )
        clbit = op.condition.bits[0]
        if clbit not in measured_source:
            raise EnsembleViolationError(
                f"condition on classical bit {clbit} before any "
                "measurement writes it"
            )
        control = measured_source[clbit]
        if control in retouched:
            raise EnsembleViolationError(
                f"control qubit {control} was modified after its "
                "measurement; delaying would change semantics"
            )
        if control in op.qubits:
            raise EnsembleViolationError(
                f"conditioned gate touches its own control qubit "
                f"{control}"
            )
        from repro.circuits import gates as gate_lib

        if op.condition.value == 0:
            result.add_gate(gate_lib.X, control)
        result.add_gate(op.gate.controlled(), control, *op.qubits,
                        tag=op.tag)
        if op.condition.value == 0:
            result.add_gate(gate_lib.X, control)
    return result


# ---------------------------------------------------------------------------
# Classical mixtures of per-computer registers
# ---------------------------------------------------------------------------

class ClassicalEnsemble:
    """Per-computer classical registers after the quantum part dephased.

    Args:
        registers: array of shape (num_computers, num_bits), entries
            in {0, 1}.
    """

    def __init__(self, registers: np.ndarray) -> None:
        registers = np.asarray(registers, dtype=np.uint8) % 2
        if registers.ndim != 2 or registers.shape[0] < 1:
            raise EnsembleViolationError(
                "registers must be (num_computers, num_bits) with at "
                "least one computer"
            )
        self.registers = registers

    @property
    def num_computers(self) -> int:
        return int(self.registers.shape[0])

    @property
    def num_bits(self) -> int:
        return int(self.registers.shape[1])

    def expectation(self, bit: int) -> float:
        """<Z> of one register bit over the ensemble."""
        column = self.registers[:, bit].astype(np.float64)
        return float(np.mean(1.0 - 2.0 * column))

    def expectations(self) -> List[float]:
        return [self.expectation(b) for b in range(self.num_bits)]

    def signals(self, readout: Optional[EnsembleReadout] = None
                ) -> List[ReadoutSignal]:
        """The ensemble signals (noise floor set by num_computers)."""
        if readout is None:
            readout = EnsembleReadout(ensemble_size=self.num_computers)
        return readout.observe_all(self.expectations())

    def read_bits(self, confidence_sigmas: float = 5.0,
                  readout: Optional[EnsembleReadout] = None
                  ) -> List[Optional[int]]:
        """Per-bit inference: 0/1 when the signal is clear, else None."""
        return [
            signal.infer_bit(confidence_sigmas)
            for signal in self.signals(readout)
        ]


# ---------------------------------------------------------------------------
# The paper's strategies
# ---------------------------------------------------------------------------

def randomize_bad_results(ensemble: ClassicalEnsemble,
                          is_good: Callable[[np.ndarray], bool],
                          output_bits: Sequence[int],
                          rng: Optional[np.random.Generator] = None
                          ) -> Tuple[ClassicalEnsemble, float]:
    """Replace bad computers' outputs with random data (paper Sec. 2).

    Every computer whose register fails ``is_good`` gets the listed
    output bits overwritten with fair coin flips; bad computers then
    contribute zero expected signal, so the surviving signal is
    ``good_fraction * (+-1)`` per bit and remains readable whenever the
    good fraction clears the shot-noise floor.

    Returns:
        (new ensemble, fraction of good computers).
    """
    if rng is None:
        rng = np.random.default_rng()
    registers = ensemble.registers.copy()
    good = 0
    for index in range(registers.shape[0]):
        if is_good(registers[index]):
            good += 1
            continue
        for bit in output_bits:
            registers[index, bit] = rng.integers(0, 2)
    return ClassicalEnsemble(registers), good / registers.shape[0]


def read_randomized_output(ensemble: ClassicalEnsemble,
                           output_bits: Sequence[int],
                           good_fraction_floor: float = 0.05,
                           readout: Optional[EnsembleReadout] = None
                           ) -> Optional[List[int]]:
    """Read the answer bits after :func:`randomize_bad_results`.

    A bit is accepted when its signal magnitude exceeds both the noise
    floor and half the minimum good fraction; returns None when any
    output bit is unreadable.
    """
    signals = ensemble.signals(readout)
    answer: List[int] = []
    for bit in output_bits:
        signal = signals[bit]
        threshold = max(5.0 * signal.noise_sigma,
                        0.5 * good_fraction_floor)
        if signal.observed > threshold:
            answer.append(0)
        elif signal.observed < -threshold:
            answer.append(1)
        else:
            return None
    return answer


def sort_results(samples: np.ndarray) -> np.ndarray:
    """Sort each computer's list of search hits (paper Sec. 2 item 2).

    Args:
        samples: (num_computers, num_searches) integer array of hits.

    Returns:
        the same array with every row sorted — the per-computer
        canonicalisation that makes registers agree across the
        ensemble with high probability.
    """
    samples = np.asarray(samples)
    return np.sort(samples, axis=1)


def agreement_fraction(rows: np.ndarray) -> float:
    """Fraction of computers holding the single most common register.

    The figure of merit for the sort strategy: readable iff close to 1.
    """
    rows = np.ascontiguousarray(rows)
    void = rows.view([("", rows.dtype)] * rows.shape[1]).reshape(-1)
    _, counts = np.unique(void, return_counts=True)
    return float(np.max(counts) / rows.shape[0])
