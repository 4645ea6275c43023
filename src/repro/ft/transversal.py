"""Transversal (bitwise) logical gates on CSS codes.

The paper's Sec. 3: for CSS codes, logical H, sigma_z and CNOT are
achieved by performing the same gate bitwise, "while the bit-wise
sigma_z^{1/2} yields a sigma_z^{-1/2} logical gate, hence requires an
additional step of bit-wise sigma_z to yield the desired logical gate."

That sign flip is a property of the code's coset weights mod 4, so this
module computes it per code (:func:`bitwise_s_phase`) instead of
hard-coding the Steane behaviour: on the Steane code bitwise S acts as
logical S^dagger (|1>_L-coset weights are 3 mod 4), on the trivial code
as logical S.  The same analysis chooses the physical two-qubit gate
(CS or CS^dagger) implementing a *classically controlled* logical S —
the gate the measurement-free sigma_z^{1/4} gadget hangs off its
classical ancilla.

All circuits here are transversal: each physical gate touches at most
one qubit per block, so one gate fault produces at most one error per
block — the sufficient condition for fault tolerance.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.codes.quantum.css import CssCode
from repro.exceptions import FaultToleranceError


def support_positions(code: CssCode) -> List[int]:
    """Positions of the logical X/Z support vector."""
    return [int(q) for q in np.nonzero(code.logical_support)[0]]


def logical_x_circuit(code: CssCode) -> Circuit:
    """Logical X: physical X on the logical support."""
    circuit = Circuit(code.n, name="logical_X")
    for qubit in support_positions(code):
        circuit.add_gate(gates.X, qubit)
    return circuit


def logical_z_circuit(code: CssCode) -> Circuit:
    """Logical Z: physical Z on the logical support."""
    circuit = Circuit(code.n, name="logical_Z")
    for qubit in support_positions(code):
        circuit.add_gate(gates.Z, qubit)
    return circuit


def logical_h_circuit(code: CssCode) -> Circuit:
    """Logical H: physical H on every qubit (CSS self-dual case)."""
    circuit = Circuit(code.n, name="logical_H")
    for qubit in range(code.n):
        circuit.add_gate(gates.H, qubit)
    return circuit


def coset_weights_mod4(code: CssCode) -> tuple:
    """(w0, w1): weights mod 4 of the |0>_L and |1>_L cosets.

    Raises:
        FaultToleranceError: if weights within a coset are not uniform
            mod 4 (then bitwise S is not a logical operation at all).
    """
    dual_words = code._enumerate_dual_words()  # internal, stable
    shift = code.logical_support
    zero_weights = {int(np.sum(word)) % 4 for word in dual_words}
    one_weights = {
        int(np.sum((word + shift) % 2)) % 4 for word in dual_words
    }
    if len(zero_weights) != 1 or len(one_weights) != 1:
        raise FaultToleranceError(
            f"{code.name}: coset weights not uniform mod 4; bitwise S "
            "does not preserve the code space"
        )
    return zero_weights.pop(), one_weights.pop()


def bitwise_s_phase(code: CssCode) -> complex:
    """The phase bitwise S applies to |1>_L (relative to |0>_L).

    +i means bitwise S *is* logical S; -i means it is logical S^dagger
    (the paper's Steane-code case).
    """
    w0, w1 = coset_weights_mod4(code)
    if w0 != 0:
        raise FaultToleranceError(
            f"{code.name}: |0>_L coset weight {w0} mod 4 != 0; bitwise "
            "S adds a relative phase within the code space"
        )
    phase = 1j**w1
    if phase not in (1j, -1j):
        raise FaultToleranceError(
            f"{code.name}: bitwise S acts as diag(1, {phase}); it "
            "implements neither logical S nor logical S^dagger"
        )
    return phase


def logical_s_circuit(code: CssCode) -> Circuit:
    """Logical S = diag(1, i)_L, built from bitwise S or S^dagger."""
    gate = gates.S if bitwise_s_phase(code) == 1j else gates.S_DG
    circuit = Circuit(code.n, name="logical_S")
    for qubit in range(code.n):
        circuit.add_gate(gate, qubit)
    return circuit


def controlled_s_physical_gate(code: CssCode) -> gates.Gate:
    """Physical two-qubit gate whose bitwise application from a
    classical control block realises a controlled logical S.

    For the Steane code this is CS^dagger (since bitwise S^dagger is
    logical S); for the trivial code it is CS.
    """
    return gates.CS if bitwise_s_phase(code) == 1j else gates.CS_DG


def controlled_s_dagger_physical_gate(code: CssCode) -> gates.Gate:
    """Physical gate for a bitwise controlled logical S^dagger
    (= sigma_z^{-1/2}, the factor in the |psi_0> eigenoperator)."""
    return gates.CS_DG if bitwise_s_phase(code) == 1j else gates.CS


def logical_cnot_circuit(code: CssCode) -> Circuit:
    """Transversal CNOT between two blocks (control 0..n-1)."""
    circuit = Circuit(2 * code.n, name="logical_CNOT")
    for qubit in range(code.n):
        circuit.add_gate(gates.CNOT, qubit, code.n + qubit)
    return circuit


def logical_cz_circuit(code: CssCode) -> Circuit:
    """Transversal CZ between two blocks.

    Valid for codes whose dual-coset inner products vanish (C^perp
    self-orthogonal and logical support of odd self-overlap) — the
    shipped codes qualify; the property is verified in the test-suite.
    """
    circuit = Circuit(2 * code.n, name="logical_CZ")
    for qubit in range(code.n):
        circuit.add_gate(gates.CZ, qubit, code.n + qubit)
    return circuit


# ---------------------------------------------------------------------------
# Classically controlled logical operations (the paper's Sec. 4.2 point:
# a classical repetition block can control bitwise operations on quantum
# data, and phase errors can never flow from control to data).
# ---------------------------------------------------------------------------

def add_controlled_logical_x(circuit: Circuit, code: CssCode,
                             control_block: Sequence[int],
                             data_block: Sequence[int]) -> None:
    """Bitwise controlled-X: classical bit i drives data qubit i.

    Applies logical X when the control block is |1...1>, identity when
    |0...0>.  Only the logical-support positions need gates.
    """
    _check_blocks(code, control_block, data_block)
    for position in support_positions(code):
        circuit.add_gate(gates.CNOT, control_block[position],
                         data_block[position])


def add_controlled_logical_z(circuit: Circuit, code: CssCode,
                             control_block: Sequence[int],
                             data_block: Sequence[int]) -> None:
    """Bitwise controlled-Z from a classical block."""
    _check_blocks(code, control_block, data_block)
    for position in support_positions(code):
        circuit.add_gate(gates.CZ, control_block[position],
                         data_block[position])


def add_controlled_logical_s(circuit: Circuit, code: CssCode,
                             control_block: Sequence[int],
                             data_block: Sequence[int]) -> None:
    """Bitwise controlled logical S from a classical block.

    This is exactly the operation the naive measurement-delaying
    strategy cannot build fault tolerantly (the catch-22 of footnote 3:
    a quantum-controlled S^{1/1} needs the very gate being built).
    With a *classical* control block it is just a bitwise two-qubit
    gate, and phase errors cannot flow control -> data.
    """
    _check_blocks(code, control_block, data_block)
    gate = controlled_s_physical_gate(code)
    for position in range(code.n):
        circuit.add_gate(gate, control_block[position],
                         data_block[position])


def add_controlled_logical_cnot(circuit: Circuit, code: CssCode,
                                control_block: Sequence[int],
                                data_control: Sequence[int],
                                data_target: Sequence[int]) -> None:
    """Classically controlled logical CNOT: bitwise Toffolis.

    The physical gate is a Toffoli with one leg on the classical block
    — precisely the gate Shor's construction needed a measurement for,
    made harmless because the classical leg cannot pass phase errors on.
    """
    _check_blocks(code, control_block, data_control)
    _check_blocks(code, control_block, data_target)
    for position in range(code.n):
        circuit.add_gate(gates.TOFFOLI, control_block[position],
                         data_control[position], data_target[position])


def add_controlled_logical_cz(circuit: Circuit, code: CssCode,
                              control_block: Sequence[int],
                              data_a: Sequence[int],
                              data_b: Sequence[int]) -> None:
    """Classically controlled logical CZ: bitwise CCZ gates."""
    _check_blocks(code, control_block, data_a)
    _check_blocks(code, control_block, data_b)
    for position in range(code.n):
        circuit.add_gate(gates.CCZ, control_block[position],
                         data_a[position], data_b[position])


def _check_blocks(code: CssCode, *blocks: Sequence[int]) -> None:
    seen: set = set()
    for block in blocks:
        if len(block) != code.n:
            raise FaultToleranceError(
                f"block size {len(block)} != code length {code.n}"
            )
        overlap = seen & set(block)
        if overlap:
            raise FaultToleranceError(
                f"blocks overlap on qubits {sorted(overlap)}; transversal "
                "operations need disjoint blocks"
            )
        seen |= set(block)
