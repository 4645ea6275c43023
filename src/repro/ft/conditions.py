"""Structural fault-tolerance checks.

The paper's Sec. 3 sufficient condition: operate on code blocks only
bitwise/transversally, so a single gate fault produces at most one
error per block.  :func:`check_transversal_structure` certifies a
gadget circuit against that condition mechanically; every gadget in
the library passes it (see the test-suite), which together with the
exhaustive single-fault sweeps gives both the structural and the
behavioural side of the fault-tolerance argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.circuits.circuit import GateOp
from repro.exceptions import FaultToleranceError
from repro.ft.gadget import Gadget


@dataclass(frozen=True)
class TransversalityViolation:
    """A gate touching one protected block more than once."""

    op_index: int
    gate_name: str
    block: str
    qubits: Tuple[int, ...]


def check_transversal_structure(gadget: Gadget,
                                protected_roles: Sequence[str] =
                                ("data", "quantum_ancilla")
                                ) -> List[TransversalityViolation]:
    """Find gates touching any protected block at >1 qubit.

    Classical-ancilla, cat and scratch registers are exempt: multiple
    legs there cannot spread errors beyond what their own redundancy
    absorbs (bit errors stay bitwise; phase errors are irrelevant).

    Returns the violations (empty list = structurally fault tolerant).
    """
    qubit_block: Dict[int, str] = {}
    for register in gadget.registers.values():
        if register.role in protected_roles:
            for qubit in register.qubits:
                qubit_block[qubit] = register.name
    violations: List[TransversalityViolation] = []
    for index, op in enumerate(gadget.circuit.operations):
        if not isinstance(op, GateOp):
            raise FaultToleranceError("gadget circuits must be unitary")
        touched: Dict[str, int] = {}
        for qubit in op.qubits:
            block = qubit_block.get(qubit)
            if block is None:
                continue
            touched[block] = touched.get(block, 0) + 1
        for block, count in touched.items():
            if count > 1:
                violations.append(TransversalityViolation(
                    op_index=index, gate_name=op.gate.name, block=block,
                    qubits=op.qubits,
                ))
    return violations


def assert_fault_tolerant_structure(gadget: Gadget) -> None:
    """Raise with a readable report when the structure check fails."""
    violations = check_transversal_structure(gadget)
    if violations:
        lines = [
            f"  op {v.op_index} ({v.gate_name} on {v.qubits}) touches "
            f"block {v.block} more than once"
            for v in violations[:10]
        ]
        raise FaultToleranceError(
            f"gadget {gadget.name} violates the transversality "
            f"condition:\n" + "\n".join(lines)
        )


def classical_control_only(gadget: Gadget) -> bool:
    """Whether classical-ancilla qubits are only ever *control* legs.

    The paper's key invariant: phase errors cannot flow from the
    classical ancilla to quantum data because the classical side never
    appears as the target of an entangling gate with the data.  For
    the gate set used by the gadgets (CNOT/Toffoli targets last, all
    other multi-qubit gates diagonal), it suffices that a classical
    qubit is never the *target* leg of a CNOT/Toffoli whose controls
    include data-block qubits.
    """
    roles: Dict[int, str] = {}
    for register in gadget.registers.values():
        for qubit in register.qubits:
            roles[qubit] = register.role
    for op in gadget.circuit.operations:
        assert isinstance(op, GateOp)
        if op.gate.name not in ("CNOT", "TOFFOLI"):
            continue
        target = op.qubits[-1]
        controls = op.qubits[:-1]
        if roles.get(target) == "classical_ancilla" and any(
                roles.get(q) == "data" for q in controls):
            return False
    return True
