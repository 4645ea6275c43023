"""Measurement-free error recovery (paper Sec. 5).

Standard (Steane-style) error correction extracts the syndrome into an
encoded ancilla block, *measures* it, runs a classical decoder on the
outcome and applies the indicated Pauli correction.  On an ensemble
machine the measurement is impossible; the paper's prescription:

    "the ancilla qubits need not be measured ... The state of the
    ancilla qubits can be first copied onto a classical repetition
    code using the N gate.  Now classical reversible computation can
    be performed on the repetition code and then a control operation
    can be performed on the quantum data to correct for the errors."

Implemented here for one CSS block and one error species at a time:

X-error recovery (``error_type="X"``):
    1. ancilla block in |+>_L; transversal CNOT data -> ancilla.  Per
       branch the ancilla now holds a uniformly random codeword XOR
       the data's bit-error pattern — its Hamming syndrome is the
       data's X-error syndrome and nothing else (the random codeword
       hides the logical value, so no unintended "measurement" of the
       data happens).
    2. extract ONE master copy of the syndrome bits from the ancilla
       (CNOTs along the parity-check rows);
    3. per data position p: fan the master syndrome out into a
       *private* copy, decode it with reversible classical logic into
       an indicator bit ind_p = [syndrome == column p] (private
       scratch bit included), and apply CNOT(ind_p -> data_p).

The layout encodes two hard-won fault-tolerance lessons, both caught
by this library's exhaustive single-fault sweeps rather than by hand:

* extracting a fresh syndrome *from the ancilla* per position is NOT
  fault tolerant — an ancilla bit error arising mid-way through the
  sequential extractions makes the copies disagree, and inconsistent
  copies can fire two different wrong corrections from one fault;
* decoding all indicators directly off one shared syndrome register
  is not fault tolerant either — a single decode-gate fault can
  corrupt a shared syndrome bit *and* the in-flight indicator chain
  together, again firing two corrections.

With one master extraction plus per-indicator private copies, any
single fault yields at most one firing indicator: a fanout fault
corrupts the master and exactly one private copy, and because
parity-check columns are distinct, the corrupted private copy and the
corrupted master can each match at most one pattern — and never two
different ones.  Private scratch bits are equally load-bearing (a
dirty shared scratch would corrupt every later indicator).

Z-error recovery (``error_type="Z"``): the CSS-dual procedure —
ancilla in |0>_L, transversal CNOT ancilla -> data (data phase errors
copy onto the ancilla), bitwise H on the ancilla (phases become bits),
then the same per-position syndrome/decode machinery driving CZ
corrections.

Phase errors picked up by the classical section never reach the data:
every interaction from the classical side is a control leg.  The
decoder itself is plain NOT/CNOT/Toffoli logic — no quantum fault
tolerance needed beyond bit-error discipline (the paper's closing
point in Sec. 5).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.codes.quantum.css import CssCode
from repro.exceptions import FaultToleranceError
from repro.ft.gadget import Gadget, RegisterAllocator, maybe_optimize
from repro.ft.special_states import sparse_logical_state
from repro.simulators.sparse import SparseState

ERROR_TYPES = ("X", "Z")


def _append_indicator(circuit: Circuit, syndrome: Sequence[int],
                      pattern: Sequence[int], scratch: int,
                      indicator: int) -> None:
    """indicator ^= [syndrome bits == pattern], via X-conjugated ANDs.

    For a 3-bit syndrome: X-conjugate the 0-literals, Toffoli the
    first two bits into the scratch, Toffoli (scratch, third) into the
    indicator, then uncompute.  For fewer bits the chain degenerates.
    """
    zero_literals = [s for s, want in zip(syndrome, pattern) if not want]
    for bit in zero_literals:
        circuit.add_gate(gates.X, bit)
    if len(syndrome) == 1:
        circuit.add_gate(gates.CNOT, syndrome[0], indicator)
    elif len(syndrome) == 2:
        circuit.add_gate(gates.TOFFOLI, syndrome[0], syndrome[1],
                         indicator)
    elif len(syndrome) == 3:
        circuit.add_gate(gates.TOFFOLI, syndrome[0], syndrome[1], scratch)
        circuit.add_gate(gates.TOFFOLI, scratch, syndrome[2], indicator)
        circuit.add_gate(gates.TOFFOLI, syndrome[0], syndrome[1], scratch)
    else:
        raise FaultToleranceError(
            f"indicator decode implemented for <=3 syndrome bits, "
            f"got {len(syndrome)}"
        )
    for bit in zero_literals:
        circuit.add_gate(gates.X, bit)


def build_recovery_gadget(code: CssCode, error_type: str = "X",
                          optimize=False) -> Gadget:
    """Build the Sec. 5 measurement-free recovery gadget for one block.

    Registers:
        ``data``     - the protected block (input/output);
        ``ancilla``  - the encoded syndrome-extraction block (input:
                       |+>_L for X recovery, |0>_L for Z recovery);
        ``syndrome_<p>`` - per-position fresh syndrome copy;
        ``scratch_<p>``  - per-position decode scratch;
        ``indicator_<p>``- per-position correction control bit.

    ``optimize`` behaves as in :func:`repro.ft.ngate.build_n_gadget`.
    """
    if error_type not in ERROR_TYPES:
        raise FaultToleranceError(
            f"error_type must be one of {ERROR_TYPES}"
        )
    checks = code.classical_code.parity_check
    num_checks = int(checks.shape[0])
    alloc = RegisterAllocator()
    data = alloc.block("data", code.n, role="data")
    ancilla = alloc.block("ancilla", code.n, role="quantum_ancilla")
    syndrome = alloc.block("syndrome", num_checks, role="work") \
        if num_checks else None
    copies: List = []
    scratches: List = []
    indicators: List = []
    if num_checks:
        for position in range(code.n):
            copies.append(alloc.block(f"copy_{position}", num_checks,
                                      role="work"))
            scratches.append(alloc.block(f"scratch_{position}", 1,
                                         role="scratch"))
            indicators.append(alloc.block(f"indicator_{position}", 1,
                                          role="classical_ancilla"))
    circuit = Circuit(alloc.num_qubits,
                      name=f"recovery_{error_type}[{code.name}]")
    # 1. Syndrome transfer onto the encoded ancilla.
    if error_type == "X":
        for position in range(code.n):
            circuit.add_gate(gates.CNOT, data.qubits[position],
                             ancilla.qubits[position])
    else:
        for position in range(code.n):
            circuit.add_gate(gates.CNOT, ancilla.qubits[position],
                             data.qubits[position])
        for position in range(code.n):
            circuit.add_gate(gates.H, ancilla.qubits[position])
    # 2. One syndrome copy (CNOTs along each parity-check row).
    if num_checks:
        for row in range(num_checks):
            for source in np.nonzero(checks[row])[0]:
                circuit.add_gate(gates.CNOT,
                                 ancilla.qubits[int(source)],
                                 syndrome.qubits[row])
    # 3. Per-position private copy, indicator decode, correction.
    for index in range(len(indicators)):
        position = index
        private = copies[index].qubits
        for row in range(num_checks):
            circuit.add_gate(gates.CNOT, syndrome.qubits[row],
                             private[row])
        # The indicator pattern: the syndrome of a single error at
        # this position (column of the parity-check matrix).
        pattern = [int(checks[row][position]) for row in range(num_checks)]
        if not any(pattern):
            raise FaultToleranceError(
                f"position {position} is not detected by any check"
            )
        _append_indicator(circuit, list(private), pattern,
                          scratches[index].qubits[0],
                          indicators[index].qubits[0])
        correction_gate = gates.CNOT if error_type == "X" else gates.CZ
        circuit.add_gate(correction_gate, indicators[index].qubits[0],
                         data.qubits[position])
    gadget = Gadget(
        name=circuit.name,
        circuit=circuit,
        registers=alloc.registers,
        data_blocks=("data",),
        output_blocks=("data",),
        notes=(
            "Measurement-free error recovery (paper Sec. 5): syndrome "
            "copied classically, decoded by reversible logic, and "
            "applied as classically controlled Pauli corrections."
        ),
    )
    return maybe_optimize(gadget, optimize)


def recovery_ancilla_state(code: CssCode, error_type: str) -> SparseState:
    """The encoded ancilla input: |+>_L for X recovery, |0>_L for Z."""
    if error_type == "X":
        return sparse_logical_state(code, {(0,): 1.0, (1,): 1.0})
    return sparse_logical_state(code, {(0,): 1.0})


def run_recovery(state_block: SparseState, code: CssCode,
                 error_types: Sequence[str] = ("X", "Z"),
                 faults_per_gadget: Optional[Dict[str, list]] = None
                 ) -> SparseState:
    """Apply measurement-free recovery passes to a single-block state.

    Returns the full gadget output of the final pass restricted back
    to a fresh single-block state via overlap-preserving embedding:
    the data block stays at qubits 0..n-1 of each gadget, so callers
    typically inspect the returned state's first n qubits.
    """
    from repro.ft.gadget import apply_circuit_with_faults

    current = state_block
    for error_type in error_types:
        gadget = build_recovery_gadget(code, error_type)
        blocks = {
            "data": current if current.num_qubits == code.n else None,
            "ancilla": recovery_ancilla_state(code, error_type),
        }
        if blocks["data"] is None:
            raise FaultToleranceError(
                "run_recovery chains single-block states only"
            )
        state = gadget.initial_state(blocks)
        faults = (faults_per_gadget or {}).get(error_type, [])
        apply_circuit_with_faults(state, gadget.circuit, faults)
        # Project the data block out for the next pass via the junk-
        # tracing overlap machinery: here we instead keep the full
        # state only on the last pass; intermediate passes require the
        # data block to be disentangled, which ideal runs guarantee.
        current = _extract_block(state, gadget.qubits("data"))
    return current


def _extract_block(state: SparseState, block: Sequence[int]) -> SparseState:
    """Extract a block that is (approximately) disentangled from junk.

    Raises when the block is significantly entangled — callers doing
    fault injection should evaluate with block overlaps instead.
    """
    # Collapse junk by projecting each junk qubit onto its dominant
    # outcome; for a disentangled block this leaves it untouched.
    scratch = state.copy()
    junk = [q for q in range(state.num_qubits) if q not in set(block)]
    for qubit in junk:
        p_one = scratch.probability_of_outcome(qubit, 1)
        scratch.project(qubit, int(p_one > 0.5))
    ordered = sorted(junk, reverse=True)
    for qubit in ordered:
        outcome_prob = scratch.probability_of_outcome(qubit, 1)
        if outcome_prob > 0.5:
            scratch.apply_gate(gates.X, [qubit])
        scratch.release([qubit])
    # Reorder if the block was not contiguous from 0 (it always is for
    # recovery gadgets, whose data block is allocated first).
    if list(block) != list(range(len(block))):
        raise FaultToleranceError("block extraction expects leading block")
    return scratch
