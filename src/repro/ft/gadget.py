"""Gadget framework: circuits with named register blocks.

A fault-tolerant *gadget* is a measurement-free circuit acting on named
blocks — encoded data blocks, quantum ancilla blocks, classical
(repetition-basis) ancilla blocks, cat-state blocks, scratch bits.
:class:`Gadget` bundles the flat circuit with its register map so
simulators, fault injectors and the analysis module can all address
"the data block" instead of raw qubit indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.pauli import PauliString
from repro.exceptions import AnalysisError, FaultToleranceError
from repro.noise.locations import (
    FaultLocation,
    circuit_memo,
    enumerate_locations,
)
from repro.simulators.sparse import SparseState


@dataclass(frozen=True)
class Register:
    """A named, ordered set of qubit indices inside a gadget circuit."""

    name: str
    qubits: Tuple[int, ...]
    role: str = "work"  # 'data' | 'quantum_ancilla' | 'classical_ancilla'
    #                     | 'cat' | 'scratch' | 'output' | 'work'

    @property
    def size(self) -> int:
        return len(self.qubits)


class RegisterAllocator:
    """Sequentially hands out qubit indices for named registers."""

    def __init__(self) -> None:
        self._next = 0
        self._registers: Dict[str, Register] = {}

    def block(self, name: str, size: int, role: str = "work") -> Register:
        if name in self._registers:
            raise FaultToleranceError(f"register {name!r} already allocated")
        register = Register(
            name=name,
            qubits=tuple(range(self._next, self._next + size)),
            role=role,
        )
        self._next += size
        self._registers[name] = register
        return register

    @property
    def num_qubits(self) -> int:
        return self._next

    @property
    def registers(self) -> Dict[str, Register]:
        return dict(self._registers)


@dataclass
class Gadget:
    """A measurement-free circuit plus its register map.

    Attributes:
        name: display name (e.g. 'ngate[steane,r=3]').
        circuit: the flat circuit over all registers.
        registers: register name -> :class:`Register`.
        data_blocks: names of registers holding protected logical data
            whose errors must stay correctable.
        output_blocks: names of registers carrying the gadget's result.
    """

    name: str
    circuit: Circuit
    registers: Dict[str, Register]
    data_blocks: Tuple[str, ...] = ()
    output_blocks: Tuple[str, ...] = ()
    notes: str = ""

    def register(self, name: str) -> Register:
        try:
            return self.registers[name]
        except KeyError:
            raise FaultToleranceError(
                f"gadget {self.name} has no register {name!r}; available: "
                f"{sorted(self.registers)}"
            ) from None

    def qubits(self, name: str) -> Tuple[int, ...]:
        return self.register(name).qubits

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    def fault_locations(self) -> List[FaultLocation]:
        """Every fault location of the gadget, the default fault space.

        Only the data and quantum-ancilla registers count as inputs:
        they arrive carrying state, while the other blocks are prepared
        inside the gadget and get their faults from the preparing gates.
        The enumeration is memoised per circuit; each call returns a
        fresh list.
        """
        input_qubits = tuple(sorted(
            qubit for register in self.registers.values()
            if register.role in ("data", "quantum_ancilla")
            for qubit in register.qubits))
        memo = circuit_memo(self.circuit)
        key = ("locations", input_qubits)
        locations = memo.get(key)
        if locations is None:
            locations = memo[key] = tuple(enumerate_locations(
                self.circuit, input_qubits=input_qubits))
        return list(locations)

    def initial_state(self, block_states: Dict[str, SparseState]
                      ) -> SparseState:
        """Tensor the given block states (|0...0> elsewhere).

        Registers must be contiguous and in allocation order, which
        :class:`RegisterAllocator` guarantees.
        """
        ordered = sorted(self.registers.values(), key=lambda r: r.qubits[0])
        state: Optional[SparseState] = None
        covered = 0
        for register in ordered:
            if register.qubits[0] != covered:
                raise FaultToleranceError(
                    f"register {register.name} is not contiguous"
                )
            covered = register.qubits[-1] + 1
            if register.name in block_states:
                piece = block_states[register.name]
                if piece.num_qubits != register.size:
                    raise FaultToleranceError(
                        f"state for {register.name} has "
                        f"{piece.num_qubits} qubits, expected "
                        f"{register.size}"
                    )
                piece = piece.copy()
            else:
                piece = SparseState(register.size)
            state = piece if state is None else state.tensor(piece)
        unknown = set(block_states) - set(self.registers)
        if unknown:
            raise FaultToleranceError(
                f"unknown blocks {sorted(unknown)} for gadget {self.name}"
            )
        if state is None:
            raise FaultToleranceError("gadget has no registers")
        return state

    def run(self, block_states: Optional[Dict[str, SparseState]] = None,
            faults: Optional[Sequence[Tuple[PauliString, int]]] = None
            ) -> SparseState:
        """Execute the gadget, optionally with injected Pauli faults.

        Args:
            block_states: initial states per register (default |0..0>).
            faults: (pauli, after_op) pairs; after_op = -1 injects
                before the first operation.
        """
        state = self.initial_state(block_states or {})
        apply_circuit_with_faults(state, self.circuit, faults or [])
        return state

    def block_overlap(self, state: SparseState, block: str,
                      expected: SparseState) -> float:
        """Overlap of one register with an expected pure block state."""
        return state.block_overlap(self.qubits(block), expected)


def apply_circuit_with_faults(state: SparseState, circuit: Circuit,
                              faults: Sequence[Tuple[PauliString, int]]
                              ) -> None:
    """Apply a unitary circuit to a sparse state with faults inserted."""
    from repro.circuits.circuit import GateOp

    by_point: Dict[int, List[PauliString]] = {}
    for pauli, after_op in faults:
        by_point.setdefault(after_op, []).append(pauli)
    for pauli in by_point.get(-1, []):
        state.apply_pauli(pauli)
    for index, op in enumerate(circuit.operations):
        if not isinstance(op, GateOp) or op.condition is not None:
            raise FaultToleranceError(
                "gadget circuits must be unconditional and unitary"
            )
        state.apply_gate(op.gate, op.qubits)
        for pauli in by_point.get(index, []):
            state.apply_pauli(pauli)


def maybe_optimize(gadget: Gadget, optimize) -> Gadget:
    """Resolve an ``optimize=`` argument — the one place it is read.

    ``False``/``None`` returns the gadget untouched; ``True`` returns
    it rewritten by the certified gadget optimizer
    (:func:`repro.optimize.optimize_gadget`); any other value raises
    :class:`~repro.exceptions.AnalysisError`.  The :mod:`repro.ft`
    builders and the analysis engine all resolve their ``optimize=``
    through here.
    """
    if optimize is False or optimize is None:
        return gadget
    if optimize is not True:
        raise AnalysisError(
            f"optimize= expects a bool, got {type(optimize).__name__}")
    from repro.optimize.pipeline import optimize_gadget

    return optimize_gadget(gadget)
