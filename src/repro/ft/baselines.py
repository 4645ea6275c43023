"""Measurement-based baselines (the protocols the paper replaces).

These are the *standard* fault-tolerant constructions — Shor FOCS'96 /
Preskill'98 / Boykin et al. FOCS'99 — in which an encoded ancilla is
measured qubit-by-qubit, a classical decoder processes the outcomes,
and the decoded bit conditions a Clifford correction.  They are
correct on a single quantum computer and *impossible* on an ensemble
machine; the library keeps them for three purposes:

1. logical-equivalence tests: the measurement-free gadgets must
   implement exactly the same logical gate;
2. the ensemble-rejection demo: feeding a baseline circuit to
   :class:`~repro.ensemble.machine.EnsembleMachine` raises
   :class:`~repro.exceptions.EnsembleViolationError`;
3. benchmark comparisons (overhead of measurement-freedom).

Because the classical decoding between measurement and correction is a
nontrivial function (Hamming-correct, then parity), the baselines are
implemented as *protocols* — circuit segments interleaved with Python
classical processing — mirroring how a real machine interleaves
quantum operations with a classical co-processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.codes.quantum.css import CssCode
from repro.exceptions import FaultToleranceError
from repro.ft import transversal
from repro.ft.special_states import sparse_logical_state
from repro.ft.t_gadget import psi0_state
from repro.ft.toffoli_gadget import and_resource_state
from repro.simulators.sparse import SparseState


def measure_block_logical(state: SparseState, block, code: CssCode,
                          rng: np.random.Generator) -> int:
    """Measure every physical qubit of a block and decode classically.

    This is the operation an ensemble machine cannot perform.  The
    measured word is Hamming-corrected and its overlap with the
    logical support gives the logical outcome (paper Sec. 4.1).
    """
    word = [state.measure(qubit, rng) for qubit in block]
    return code.logical_readout(word)


@dataclass
class BaselineResult:
    """Outcome of a baseline protocol run."""

    state: SparseState
    outcomes: Tuple[int, ...]


class MeasuredTGate:
    """Measurement-based fault-tolerant sigma_z^{1/4} ([4]'s original).

    Teleports the gate off |psi_0>: transversal CNOT data -> psi,
    measure the psi block, apply logical sigma_z^{1/2} when the
    outcome is 1.
    """

    requires_measurement = True

    def __init__(self, code: CssCode, seed: Optional[int] = None) -> None:
        self.code = code
        self._rng = np.random.default_rng(seed)

    def run(self, data_state: SparseState) -> BaselineResult:
        code = self.code
        if data_state.num_qubits != code.n:
            raise FaultToleranceError("data state size mismatch")
        state = data_state.tensor(psi0_state(code))
        data = list(range(code.n))
        psi = list(range(code.n, 2 * code.n))
        for position in range(code.n):
            state.apply_gate(gates.CNOT, [data[position], psi[position]])
        outcome = measure_block_logical(state, psi, code, self._rng)
        if outcome:
            state.apply_circuit(transversal.logical_s_circuit(code),
                                qubits=data)
        return BaselineResult(state=state, outcomes=(outcome,))

    def circuit_with_measurements(self) -> Circuit:
        """A Circuit object exposing the forbidden operations.

        Includes the physical measurements (classical decode omitted —
        its mere presence is what the ensemble machine rejects).
        """
        code = self.code
        circuit = Circuit(2 * code.n, num_clbits=code.n,
                          name=f"measured_t[{code.name}]")
        for position in range(code.n):
            circuit.add_gate(gates.CNOT, position, code.n + position)
        for position in range(code.n):
            circuit.measure(code.n + position, position)
        return circuit


class MeasuredToffoli:
    """Shor's measurement-based fault-tolerant Toffoli.

    Identical structure to the Fig. 4 gadget with the three N gates
    replaced by logical measurements and the corrections applied
    classically per outcome.
    """

    requires_measurement = True

    def __init__(self, code: CssCode, seed: Optional[int] = None) -> None:
        self.code = code
        self._rng = np.random.default_rng(seed)

    def run(self, data_x: SparseState, data_y: SparseState,
            data_z: SparseState) -> BaselineResult:
        code = self.code
        n = code.n
        state = and_resource_state(code)
        for piece in (data_x, data_y, data_z):
            if piece.num_qubits != n:
                raise FaultToleranceError("data state size mismatch")
            state = state.tensor(piece)
        blocks = {
            "a": list(range(0, n)),
            "b": list(range(n, 2 * n)),
            "c": list(range(2 * n, 3 * n)),
            "x": list(range(3 * n, 4 * n)),
            "y": list(range(4 * n, 5 * n)),
            "z": list(range(5 * n, 6 * n)),
        }
        for position in range(n):
            state.apply_gate(gates.CNOT, [blocks["a"][position],
                                          blocks["x"][position]])
        for position in range(n):
            state.apply_gate(gates.CNOT, [blocks["b"][position],
                                          blocks["y"][position]])
        for position in range(n):
            state.apply_gate(gates.CNOT, [blocks["z"][position],
                                          blocks["c"][position]])
        for position in range(n):
            state.apply_gate(gates.H, [blocks["z"][position]])
        m1 = measure_block_logical(state, blocks["x"], code, self._rng)
        m2 = measure_block_logical(state, blocks["y"], code, self._rng)
        m3 = measure_block_logical(state, blocks["z"], code, self._rng)
        # Classically conditioned transversal Clifford corrections.
        if m3:
            state.apply_circuit(transversal.logical_z_circuit(code),
                                qubits=blocks["c"])
            cz = transversal.logical_cz_circuit(code)
            state.apply_circuit(cz, qubits=blocks["a"] + blocks["b"])
        if m2:
            cnot = transversal.logical_cnot_circuit(code)
            state.apply_circuit(cnot, qubits=blocks["a"] + blocks["c"])
        if m1:
            cnot = transversal.logical_cnot_circuit(code)
            state.apply_circuit(cnot, qubits=blocks["b"] + blocks["c"])
        if m1 and m2:
            state.apply_circuit(transversal.logical_x_circuit(code),
                                qubits=blocks["c"])
        if m1:
            state.apply_circuit(transversal.logical_x_circuit(code),
                                qubits=blocks["a"])
        if m2:
            state.apply_circuit(transversal.logical_x_circuit(code),
                                qubits=blocks["b"])
        return BaselineResult(state=state, outcomes=(m1, m2, m3))


class MeasuredRecovery:
    """Standard error correction: measure the syndrome ancilla.

    X pass: ancilla |+>_L, transversal CNOT data -> ancilla, measure
    the ancilla word, Hamming-decode its syndrome, flip the indicated
    data qubit.  Z pass: CSS dual.
    """

    requires_measurement = True

    def __init__(self, code: CssCode, seed: Optional[int] = None) -> None:
        self.code = code
        self._rng = np.random.default_rng(seed)

    def run_pass(self, state: SparseState, data, error_type: str
                 ) -> SparseState:
        code = self.code
        if error_type not in ("X", "Z"):
            raise FaultToleranceError("error_type must be 'X' or 'Z'")
        ancilla_state = sparse_logical_state(
            code, {(0,): 1.0, (1,): 1.0} if error_type == "X"
            else {(0,): 1.0}
        )
        offset = state.num_qubits
        state = state.tensor(ancilla_state)
        ancilla = list(range(offset, offset + code.n))
        if error_type == "X":
            for position in range(code.n):
                state.apply_gate(gates.CNOT, [data[position],
                                              ancilla[position]])
        else:
            for position in range(code.n):
                state.apply_gate(gates.CNOT, [ancilla[position],
                                              data[position]])
            for position in range(code.n):
                state.apply_gate(gates.H, [ancilla[position]])
        word = [state.measure(qubit, self._rng) for qubit in ancilla]
        syndrome = self.code.classical_code.syndrome(word)
        error = self.code.classical_code.error_for_syndrome(syndrome)
        correction = gates.X if error_type == "X" else gates.Z
        for position in np.nonzero(error)[0]:
            state.apply_gate(correction, [data[int(position)]])
        return state

    def run(self, data_state: SparseState) -> SparseState:
        """Both passes on a single-block state."""
        state = data_state.copy()
        data = list(range(self.code.n))
        state = self.run_pass(state, data, "X")
        state = self.run_pass(state, data, "Z")
        return state
