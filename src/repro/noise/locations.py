"""Fault-location enumeration.

The paper's error accounting (Sec. 4.2): "For a probability p of an
error (per gate, per input bit, and per delay line), the resulting
error rate of this circuit is O(p^2)".  A *fault location* is therefore
one of:

* ``input`` — one circuit input qubit (the fault sits before any gate);
* ``gate`` — one gate application (the fault is a Pauli on the gate's
  qubits, inserted right after it);
* ``delay`` — one (moment, qubit) pair where an already-active qubit
  idles.

Each location carries ``after_op``, the operation index after which its
fault takes effect, which is what both the state-vector injector and
the Pauli propagator consume.

:class:`FaultSpace` is the object the paper counts over: a gadget's
locations together with the Paulis a channel can place at each.  Every
sampler, the exhaustive survey and the symbolic analyzer read one.
Spaces (and a gadget's default locations) are memoised per circuit, so
repeat runs on one gadget share them.
"""

from __future__ import annotations

import functools
import weakref
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit, GateOp
from repro.circuits.pauli import PauliString, pauli_basis
from repro.exceptions import AnalysisError


@dataclass(frozen=True)
class FaultLocation:
    """One place where the noise model may strike.

    Attributes:
        kind: 'input', 'gate' or 'delay'.
        qubits: qubits the fault may act on (one for input/delay, the
            gate's qubits for gate locations).
        after_op: operation index the fault is inserted after (-1 means
            before the first operation).
        detail: human-readable position (gate name / moment index).
    """

    kind: str
    qubits: Tuple[int, ...]
    after_op: int
    detail: str = ""


def enumerate_locations(circuit: Circuit,
                        include_inputs: bool = True,
                        include_gates: bool = True,
                        include_delays: bool = True,
                        input_qubits: Optional[Sequence[int]] = None
                        ) -> List[FaultLocation]:
    """All fault locations of a (measurement-free) circuit.

    Args:
        circuit: the circuit under analysis.
        include_inputs / include_gates / include_delays: toggles for
            the three location kinds.
        input_qubits: restrict input locations to these qubits (e.g.
            only the data block carries unknown input state; fresh
            ancillas prepared inside the gadget get their faults from
            the preparing gates instead).  Default: every qubit.
    """
    locations: List[FaultLocation] = []
    if include_inputs:
        qubits = range(circuit.num_qubits) if input_qubits is None \
            else input_qubits
        for qubit in qubits:
            locations.append(FaultLocation(
                kind="input", qubits=(qubit,), after_op=-1,
                detail=f"input q{qubit}",
            ))
    if include_gates:
        for index, op in enumerate(circuit.operations):
            if not isinstance(op, GateOp):
                raise AnalysisError(
                    "fault enumeration requires a measurement-free circuit"
                )
            locations.append(FaultLocation(
                kind="gate", qubits=op.qubits, after_op=index,
                detail=f"{op.gate.name}@op{index}",
            ))
    if include_delays:
        locations.extend(_delay_locations(circuit))
    return locations


def _delay_locations(circuit: Circuit) -> List[FaultLocation]:
    """Delay-line locations, each mapped to an ``after_op`` index.

    A fault on qubit q idling during moment m only fails to commute
    with operations touching q, and those are ordered identically in
    program and moment order.  It is therefore inserted after the last
    program operation that touches q in a moment <= m.
    """
    # Recompute the ASAP moment assignment, keeping program indices.
    # Each qubit's ops get strictly increasing moments in program
    # order, so the anchor is a bisect into that qubit's moment list.
    qubit_frontier = [0] * circuit.num_qubits
    moments: List[List[int]] = [[] for _ in range(circuit.num_qubits)]
    indices: List[List[int]] = [[] for _ in range(circuit.num_qubits)]
    for index, op in enumerate(circuit.operations):
        touched = op.touched_qubits
        moment = max((qubit_frontier[q] for q in touched), default=0)
        for q in touched:
            qubit_frontier[q] = moment + 1
            moments[q].append(moment)
            indices[q].append(index)
    locations: List[FaultLocation] = []
    for moment_index, qubit in circuit.idle_locations():
        position = bisect_right(moments[qubit], moment_index) - 1
        locations.append(FaultLocation(
            kind="delay", qubits=(qubit,),
            after_op=indices[qubit][position] if position >= 0 else -1,
            detail=f"delay q{qubit}@m{moment_index}",
        ))
    return locations


def count_locations(circuit: Circuit,
                    locations: Optional[Sequence[FaultLocation]] = None,
                    **kwargs) -> dict:
    """Histogram of location kinds — the paper's counting input.

    Counts ``locations`` when given, else ``enumerate_locations(circuit,
    **kwargs)``.  The three classic kinds are always present; extended
    kinds (``burst``, ``crosstalk``) appear when they occur.
    """
    if locations is None:
        locations = enumerate_locations(circuit, **kwargs)
    return _kind_histogram(locations)


def _kind_histogram(locations: Sequence[FaultLocation]) -> dict:
    counts = {"input": 0, "gate": 0, "delay": 0}
    for location in locations:
        counts[location.kind] = counts.get(location.kind, 0) + 1
    counts["total"] = sum(counts.values())
    return counts


#: Tables derived from a circuit: circuit -> ((len, num_qubits), memo).
#: Circuits only grow by appending, so a changed shape means every
#: stored table is stale.  Entries die with their circuit.  Tables are
#: pure functions of their key, so a racing writer costs only a
#: rebuild.
_CIRCUIT_MEMO: "weakref.WeakKeyDictionary[Circuit, tuple]" = \
    weakref.WeakKeyDictionary()


def circuit_memo(circuit: Circuit) -> dict:
    """The memo of tables derived from ``circuit`` as it stands now
    (:meth:`FaultSpace.build` and ``Gadget.fault_locations`` share
    it, under distinct keys)."""
    shape = (len(circuit), circuit.num_qubits)
    entry = _CIRCUIT_MEMO.get(circuit)
    if entry is None or entry[0] != shape:
        entry = _CIRCUIT_MEMO[circuit] = (shape, {})
    return entry[1]


def channel_paulis(width: int, channel: str) -> List[PauliString]:
    """The non-identity ``width``-qubit Paulis a channel allows, in
    ``pauli_basis`` order (pair and strike draws index into it)."""
    from repro.noise.model import channel_spec  # model imports us

    spec = channel_spec(channel)
    return [local for local in pauli_basis(width)
            if not local.is_identity and spec.allows(local.label())]


@dataclass(frozen=True)
class FaultSpace:
    """Fault locations and the Pauli choices a channel allows at each.

    ``choices[i]`` lists the register-wide Paulis that can strike
    ``locations[i]`` in :func:`channel_paulis` order, and
    ``after_ops[i]`` is where they are inserted.  Seeded streams index
    into ``choices``, so the order is part of the determinism contract.

    :meth:`build` memoises each space per circuit and shares it between
    runs (it is frozen); a noise model adds only
    :meth:`probabilities`.
    """

    locations: Tuple[FaultLocation, ...]
    after_ops: Tuple[int, ...]
    num_qubits: int
    channel: str
    choices: Tuple[Tuple[PauliString, ...], ...]

    @classmethod
    def build(cls, circuit: Circuit,
              locations: Sequence[FaultLocation],
              channel: str = "depolarizing") -> "FaultSpace":
        """The space of ``locations`` under ``channel``.

        Repeat calls with the same circuit, locations and channel
        return the same object.  The memo lives as long as the circuit
        and is dropped when an op is appended to it.
        """
        from repro.noise.model import channel_spec  # model imports us

        locations = tuple(locations)
        memo = circuit_memo(circuit)
        key = ("space", locations, channel_spec(channel))
        space = memo.get(key)
        if space is None:
            space = memo[key] = cls._embed(circuit.num_qubits, locations,
                                           channel)
        return space

    @classmethod
    def _embed(cls, num_qubits: int,
               locations: Tuple[FaultLocation, ...],
               channel: str) -> "FaultSpace":
        local: Dict[int, List[PauliString]] = {}
        choices = []
        for location in locations:
            width = len(location.qubits)
            if width not in local:
                local[width] = channel_paulis(width, channel)
            qubits = list(location.qubits)
            choices.append(tuple(
                pauli.embedded(num_qubits, qubits)
                for pauli in local[width]))
        return cls(locations=locations,
                   after_ops=tuple(loc.after_op for loc in locations),
                   num_qubits=num_qubits, channel=channel,
                   choices=tuple(choices))

    @functools.cached_property
    def widths(self) -> np.ndarray:
        """``len(choices[i])`` per location: the iid sampler's draw
        bounds (a location with no choice is never struck)."""
        widths = np.array([len(choices) for choices in self.choices],
                          dtype=np.int64)
        widths.setflags(write=False)  # shared with every run
        return widths

    def __len__(self) -> int:
        return len(self.locations)

    def probabilities(self, noise) -> np.ndarray:
        """Per-location strike probabilities under a noise model."""
        return np.array([noise.probability_for(location)
                         for location in self.locations], dtype=float)

    def singles(self) -> Iterator[Tuple[FaultLocation, PauliString]]:
        """Every (location, pauli) single fault, in enumeration order."""
        for location, choices in zip(self.locations, self.choices):
            for pauli in choices:
                yield location, pauli

    def kind_counts(self) -> dict:
        """Histogram of location kinds (see :func:`count_locations`)."""
        return _kind_histogram(self.locations)


def burst_locations(circuit: Circuit,
                    weight: int,
                    qubits: Optional[Sequence[int]] = None,
                    after_ops: Sequence[int] = (-1,)
                    ) -> List[FaultLocation]:
    """Multi-qubit burst locations: contiguous windows of ``weight``
    qubits, one location per (window, insertion point).

    These model spatially-clustered error events the iid per-location
    model cannot express: a single physical disturbance (a control
    glitch, an RF spike on an NMR ensemble) striking several adjacent
    qubits at once.  With ``weight=1`` this degenerates to ordinary
    single-qubit locations.

    Args:
        circuit: supplies the register width and operation count.
        weight: qubits per burst window (>= 1).
        qubits: ordered qubit list the windows slide over (default all
            register qubits in index order; pass a register's qubit
            tuple to confine bursts to one block — e.g. the classical
            ancilla for the majority-vote break-point sweep).
        after_ops: insertion points; -1 injects before the first
            operation, ``len(operations) - 1`` after the last.
    """
    if weight < 1:
        raise AnalysisError(f"burst weight must be >= 1, got {weight}")
    ordered = list(range(circuit.num_qubits)) if qubits is None \
        else list(qubits)
    if weight > len(ordered):
        raise AnalysisError(
            f"burst weight {weight} exceeds the {len(ordered)} qubits "
            f"available"
        )
    last = len(circuit.operations) - 1
    locations: List[FaultLocation] = []
    for after_op in after_ops:
        if not -1 <= after_op <= last:
            raise AnalysisError(
                f"after_op {after_op} outside [-1, {last}]"
            )
        for start in range(len(ordered) - weight + 1):
            window = tuple(ordered[start:start + weight])
            locations.append(FaultLocation(
                kind="burst", qubits=window, after_op=after_op,
                detail=f"burst w{weight} q{window[0]}..q{window[-1]}"
                       f"@op{after_op}",
            ))
    return locations
