"""Circuit intermediate representation.

A :class:`Circuit` is an ordered list of operations over an indexed
qubit register and an indexed classical-bit register.  Three operation
kinds cover everything in the paper:

* :class:`GateOp` — a unitary gate on specific qubits, optionally
  conditioned on classical bits.  Classically conditioned gates are the
  "measure then apply U_j" pattern of the *standard* fault-tolerant
  protocols; the paper's measurement-free constructions never need
  them, but the baselines in :mod:`repro.ft.baselines` do.
* :class:`MeasureOp` — a computational-basis measurement of one qubit
  into one classical bit.  This is the operation that is *impossible*
  on an ensemble quantum computer (only expectation values over the
  ensemble are observable), and the
  :class:`~repro.ensemble.machine.EnsembleMachine` rejects it.
* :class:`ResetOp` — reset a qubit to |0>.  Equivalent to a measurement
  followed by a conditional flip, hence equally forbidden on ensemble
  machines (the paper cites algorithmic cooling as the ensemble-world
  substitute).

Circuits support functional composition, inversion, qubit remapping
(used to embed gadget sub-circuits into larger fault-tolerant
circuits) and ASAP scheduling into *moments*.  Moments matter because
the paper's error counting assigns a fault location to every gate,
every input bit **and every delay line** — an idle qubit in a moment is
a delay-line location.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.circuits.gates import Gate
from repro.exceptions import CircuitError


@dataclass(frozen=True)
class ClassicalCondition:
    """Condition a gate on classical bits holding a given value.

    The gate fires iff the bits listed in ``bits`` (little-endian: the
    first entry is the least-significant bit) currently spell ``value``.
    """

    bits: Tuple[int, ...]
    value: int

    def __post_init__(self) -> None:
        if not self.bits:
            raise CircuitError("classical condition needs at least one bit")
        if not 0 <= self.value < 2 ** len(self.bits):
            raise CircuitError(
                f"condition value {self.value} out of range for "
                f"{len(self.bits)} bits"
            )

    def is_satisfied(self, classical_bits: Sequence[int]) -> bool:
        """Evaluate the condition against a classical register."""
        value = 0
        for position, bit_index in enumerate(self.bits):
            value |= (classical_bits[bit_index] & 1) << position
        return value == self.value


@dataclass(frozen=True)
class GateOp:
    """A unitary gate applied to an ordered tuple of qubits."""

    gate: Gate
    qubits: Tuple[int, ...]
    condition: Optional[ClassicalCondition] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if len(self.qubits) != self.gate.num_qubits:
            raise CircuitError(
                f"gate {self.gate.name} expects {self.gate.num_qubits} "
                f"qubits, got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(
                f"gate {self.gate.name} applied to duplicate qubits "
                f"{self.qubits}"
            )

    @property
    def touched_qubits(self) -> Tuple[int, ...]:
        return self.qubits

    def remapped(self, qubit_map: Dict[int, int],
                 clbit_map: Optional[Dict[int, int]] = None) -> "GateOp":
        condition = self.condition
        if condition is not None and clbit_map is not None:
            condition = ClassicalCondition(
                tuple(clbit_map[b] for b in condition.bits), condition.value
            )
        return replace(
            self,
            qubits=tuple(qubit_map[q] for q in self.qubits),
            condition=condition,
        )


@dataclass(frozen=True)
class MeasureOp:
    """Computational-basis measurement of ``qubit`` into ``clbit``."""

    qubit: int
    clbit: int
    tag: str = ""

    @property
    def touched_qubits(self) -> Tuple[int, ...]:
        return (self.qubit,)

    def remapped(self, qubit_map: Dict[int, int],
                 clbit_map: Optional[Dict[int, int]] = None) -> "MeasureOp":
        clbit = self.clbit if clbit_map is None else clbit_map[self.clbit]
        return replace(self, qubit=qubit_map[self.qubit], clbit=clbit)


@dataclass(frozen=True)
class ResetOp:
    """Reset ``qubit`` to |0> (measure and conditionally flip)."""

    qubit: int
    tag: str = ""

    @property
    def touched_qubits(self) -> Tuple[int, ...]:
        return (self.qubit,)

    def remapped(self, qubit_map: Dict[int, int],
                 clbit_map: Optional[Dict[int, int]] = None) -> "ResetOp":
        return replace(self, qubit=qubit_map[self.qubit])


Operation = Union[GateOp, MeasureOp, ResetOp]


class Circuit:
    """An ordered sequence of operations on qubit and classical registers.

    Args:
        num_qubits: size of the qubit register.
        num_clbits: size of the classical register (default 0).
        name: optional label used in drawings and reports.
    """

    def __init__(self, num_qubits: int, num_clbits: int = 0,
                 name: str = "") -> None:
        if num_qubits < 0 or num_clbits < 0:
            raise CircuitError("register sizes must be non-negative")
        self.num_qubits = num_qubits
        self.num_clbits = num_clbits
        self.name = name
        self._ops: List[Operation] = []

    # -- construction -------------------------------------------------

    def append(self, op: Operation) -> "Circuit":
        """Append a pre-built operation, validating register bounds."""
        for qubit in op.touched_qubits:
            self._check_qubit(qubit)
        if isinstance(op, MeasureOp):
            self._check_clbit(op.clbit)
        if isinstance(op, GateOp) and op.condition is not None:
            for bit in op.condition.bits:
                self._check_clbit(bit)
        self._ops.append(op)
        return self

    def add_gate(self, gate: Gate, *qubits: int,
                 condition: Optional[ClassicalCondition] = None,
                 tag: str = "") -> "Circuit":
        """Append ``gate`` on ``qubits``; returns self for chaining."""
        return self.append(GateOp(gate, tuple(qubits), condition, tag))

    def measure(self, qubit: int, clbit: int, tag: str = "") -> "Circuit":
        """Append a single-computer measurement (forbidden on ensembles)."""
        return self.append(MeasureOp(qubit, clbit, tag))

    def reset(self, qubit: int, tag: str = "") -> "Circuit":
        """Append a reset (forbidden on ensembles)."""
        return self.append(ResetOp(qubit, tag))

    def extend(self, other: "Circuit",
               qubit_offset: int = 0, clbit_offset: int = 0) -> "Circuit":
        """Append all of ``other``'s operations, shifting registers."""
        qubit_map = {q: q + qubit_offset for q in range(other.num_qubits)}
        clbit_map = {c: c + clbit_offset for c in range(other.num_clbits)}
        for op in other.operations:
            self.append(op.remapped(qubit_map, clbit_map))
        return self

    def compose(self, other: "Circuit",
                qubits: Optional[Sequence[int]] = None,
                clbits: Optional[Sequence[int]] = None) -> "Circuit":
        """Append ``other`` with its registers mapped onto ours.

        ``qubits[i]`` is the qubit of ``self`` that plays the role of
        qubit ``i`` of ``other`` (likewise ``clbits``).  This is how
        gadget circuits (the N gate, special-state preparation, ...)
        are wired into a larger fault-tolerant circuit.
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if clbits is None:
            clbits = list(range(other.num_clbits))
        if len(qubits) != other.num_qubits:
            raise CircuitError(
                f"compose: need {other.num_qubits} qubit targets, "
                f"got {len(qubits)}"
            )
        if len(clbits) != other.num_clbits:
            raise CircuitError(
                f"compose: need {other.num_clbits} clbit targets, "
                f"got {len(clbits)}"
            )
        qubit_map = dict(enumerate(qubits))
        clbit_map = dict(enumerate(clbits))
        for op in other.operations:
            self.append(op.remapped(qubit_map, clbit_map))
        return self

    # -- inspection ---------------------------------------------------

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """The operations in program order (read-only view)."""
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)

    @property
    def has_measurements(self) -> bool:
        """True when any single-computer measurement or reset appears.

        This is the paper's litmus test: a circuit is runnable on an
        ensemble quantum computer iff this property is False.
        """
        return any(isinstance(op, (MeasureOp, ResetOp)) for op in self._ops)

    @property
    def has_classical_control(self) -> bool:
        """True when any gate is conditioned on classical bits."""
        return any(
            isinstance(op, GateOp) and op.condition is not None
            for op in self._ops
        )

    def is_ensemble_safe(self) -> bool:
        """Whether the circuit can run on an ensemble machine.

        A circuit is ensemble-safe when it contains no single-computer
        measurements, no resets and no classically-controlled gates
        (the classical control values would have to come from a
        measurement of an individual computer).
        """
        return not self.has_measurements and not self.has_classical_control

    def count_gates(self) -> Dict[str, int]:
        """Histogram of gate names (measurements counted as 'measure')."""
        counts: Dict[str, int] = {}
        for op in self._ops:
            if isinstance(op, GateOp):
                key = op.gate.name
            elif isinstance(op, MeasureOp):
                key = "measure"
            else:
                key = "reset"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def depth(self) -> int:
        """Number of moments after ASAP scheduling."""
        return len(self.moments())

    # -- transformation ------------------------------------------------

    def inverse(self) -> "Circuit":
        """The inverse circuit (requires a purely unitary circuit)."""
        if self.has_measurements:
            raise CircuitError("cannot invert a circuit with measurements")
        inverted = Circuit(self.num_qubits, self.num_clbits,
                           name=f"{self.name}_dg" if self.name else "")
        for op in reversed(self._ops):
            assert isinstance(op, GateOp)
            inverted.append(replace(op, gate=op.gate.inverse()))
        return inverted

    def remapped(self, qubit_map: Dict[int, int],
                 num_qubits: Optional[int] = None) -> "Circuit":
        """A copy acting on relabelled qubits."""
        if num_qubits is None:
            num_qubits = max(qubit_map.values()) + 1 if qubit_map else 0
        result = Circuit(num_qubits, self.num_clbits, name=self.name)
        for op in self._ops:
            result.append(op.remapped(qubit_map))
        return result

    def copy(self) -> "Circuit":
        """A shallow copy (operations are immutable, so this is safe)."""
        result = Circuit(self.num_qubits, self.num_clbits, name=self.name)
        result._ops = list(self._ops)
        return result

    # -- scheduling ----------------------------------------------------

    def moments(self) -> List[List[Operation]]:
        """Greedy ASAP partition into moments of disjoint-qubit ops.

        Classical dependencies are respected conservatively: a
        conditioned gate cannot be scheduled before the measurement
        writing its condition bits, and measurements act as barriers on
        their classical bit.
        """
        moments: List[List[Operation]] = []
        qubit_frontier = [0] * self.num_qubits
        clbit_frontier = [0] * self.num_clbits
        for op in self._ops:
            earliest = 0
            for qubit in op.touched_qubits:
                earliest = max(earliest, qubit_frontier[qubit])
            if isinstance(op, GateOp) and op.condition is not None:
                for bit in op.condition.bits:
                    earliest = max(earliest, clbit_frontier[bit])
            while len(moments) <= earliest:
                moments.append([])
            moments[earliest].append(op)
            for qubit in op.touched_qubits:
                qubit_frontier[qubit] = earliest + 1
            if isinstance(op, MeasureOp):
                clbit_frontier[op.clbit] = earliest + 1
        return moments

    def idle_locations(self) -> List[Tuple[int, int]]:
        """(moment_index, qubit) pairs where a qubit sits idle.

        These are the paper's *delay line* fault locations: a qubit
        that has already been touched and will be touched again, but
        does nothing during this moment, can still decohere.
        """
        moments = self.moments()
        first_use = [None] * self.num_qubits  # type: List[Optional[int]]
        last_use = [None] * self.num_qubits  # type: List[Optional[int]]
        busy: List[set] = [set() for _ in moments]
        for index, moment in enumerate(moments):
            for op in moment:
                for qubit in op.touched_qubits:
                    busy[index].add(qubit)
                    if first_use[qubit] is None:
                        first_use[qubit] = index
                    last_use[qubit] = index
        idle: List[Tuple[int, int]] = []
        for qubit in range(self.num_qubits):
            if first_use[qubit] is None:
                continue
            for index in range(first_use[qubit], last_use[qubit] + 1):
                if qubit not in busy[index]:
                    idle.append((index, qubit))
        return idle

    # -- misc ----------------------------------------------------------

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise CircuitError(
                f"qubit index {qubit} out of range [0, {self.num_qubits})"
            )

    def _check_clbit(self, clbit: int) -> None:
        if not 0 <= clbit < self.num_clbits:
            raise CircuitError(
                f"classical bit index {clbit} out of range "
                f"[0, {self.num_clbits})"
            )

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"Circuit({label} qubits={self.num_qubits}, "
            f"clbits={self.num_clbits}, ops={len(self._ops)})"
        )
