"""Symbolic fault analysis of gadget circuits (conservative bounds).

Works at any qubit count: every single fault of the gadget's default
:class:`~repro.noise.locations.FaultSpace` is pushed through the
circuit in the Heisenberg picture (:class:`~repro.simulators.pauli_tracker.
PauliPropagator`), and the propagated residual is judged per register
block — the style of evaluation the paper performs by hand ("the
threshold can easily be calculated by counting the potential places
for two errors").

IMPORTANT CAVEAT: the symbolic analysis is a *strict over-
approximation*.  The classical correction logic inside N_1 cancels a
propagated bit error conditionally on the syndrome bits' values; that
value-dependent cancellation is invisible to worst-case Pauli
propagation (and the Toffoli gates of the OR box additionally trigger
the "wild" fallback).  Consequently this module reports some benign
single faults as failures.  Its legitimate uses are (a) exact fault
*location* counting, (b) conservative *upper bounds* on malignant
pairs, and (c) relative comparisons between gadget variants.  The
authoritative certification — zero malignant single faults, and
sampled malignant-pair counts — comes from exact simulation of the
same fault space by :mod:`repro.analysis.engine`
(:func:`~repro.analysis.engine.run_exhaustive` and
:func:`~repro.analysis.engine.run_malignant_pairs`).

Acceptance criteria per block role:

* ``data`` / ``quantum_ancilla``: the residual restricted to the block
  must be correctable by the code, judging X and Z species separately
  (CSS decoders are independent per species) and counting *wild*
  qubits — positions whose error is unknown after a non-Clifford gate
  — as both species.  Phase errors on ``quantum_ancilla`` blocks are
  ignored: those blocks never act on data again after the N gate reads
  them (the paper's Sec. 4.1 argument).
* ``classical_ancilla``: only bit (X) errors count, and up to
  floor((width-1)/2) of them are tolerated (the repetition code's
  radius); a downstream bitwise controlled-U converts them into
  equally many correctable data errors.
* everything else (cat, scratch, work, parity bits): ignored at end of
  circuit — they are junk by then; any harm they could do was done
  *during* the circuit and is already reflected in the other blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.circuits.pauli import PauliString
from repro.codes.quantum.css import CssCode
from repro.ft.gadget import Gadget
from repro.noise.locations import FaultLocation, FaultSpace
from repro.simulators.pauli_tracker import PauliPropagator, PropagatedFault


@dataclass(frozen=True)
class ResidualSignature:
    """Per-block (X support, Z support) of a propagated fault."""

    x_support: Tuple[Tuple[str, FrozenSet[int]], ...]
    z_support: Tuple[Tuple[str, FrozenSet[int]], ...]

    def combine(self, other: "ResidualSignature") -> "ResidualSignature":
        """Worst-case union (supports can only grow when combining)."""
        return ResidualSignature(
            x_support=_union_supports(self.x_support, other.x_support),
            z_support=_union_supports(self.z_support, other.z_support),
        )


def _union_supports(first, second):
    merged: Dict[str, FrozenSet[int]] = dict(first)
    for name, support in second:
        merged[name] = merged.get(name, frozenset()) | support
    return tuple(sorted(merged.items()))


class GadgetFaultAnalyzer:
    """Propagates and judges faults for one gadget."""

    def __init__(self, gadget: Gadget, code: CssCode,
                 ignore_quantum_ancilla_phase: bool = True) -> None:
        self.gadget = gadget
        self.code = code
        self.ignore_quantum_ancilla_phase = ignore_quantum_ancilla_phase
        self._propagator = PauliPropagator(gadget.circuit)
        self.space = FaultSpace.build(gadget.circuit,
                                      gadget.fault_locations())

    @property
    def locations(self) -> Tuple[FaultLocation, ...]:
        return self.space.locations

    # -- judging ---------------------------------------------------------

    def signature_of(self, fault: PauliString,
                     after_op: int) -> ResidualSignature:
        propagated = self._propagator.propagate(fault, after_op)
        return self._signature(propagated)

    def _signature(self, propagated: PropagatedFault) -> ResidualSignature:
        x_support = propagated.x_support()
        z_support = propagated.z_support()
        x_entries = []
        z_entries = []
        for register in self.gadget.registers.values():
            qubits = set(register.qubits)
            x_local = frozenset(
                register.qubits.index(q) for q in (x_support & qubits)
            )
            z_local = frozenset(
                register.qubits.index(q) for q in (z_support & qubits)
            )
            if x_local:
                x_entries.append((register.name, x_local))
            if z_local:
                z_entries.append((register.name, z_local))
        return ResidualSignature(
            x_support=tuple(sorted(x_entries)),
            z_support=tuple(sorted(z_entries)),
        )

    def is_acceptable(self, signature: ResidualSignature) -> bool:
        """Judge a residual signature against the block tolerances."""
        limits = self._block_limits()
        for name, support in signature.x_support:
            limit = limits.get(name)
            if limit is not None and len(support) > limit:
                return False
        for name, support in signature.z_support:
            register = self.gadget.registers[name]
            if register.role == "classical_ancilla":
                continue  # phase errors on classical bits are harmless
            if register.role == "quantum_ancilla" \
                    and self.ignore_quantum_ancilla_phase:
                continue
            limit = limits.get(name)
            if limit is not None and len(support) > limit:
                return False
        return True

    def _block_limits(self) -> Dict[str, int]:
        limits: Dict[str, int] = {}
        for register in self.gadget.registers.values():
            if register.role in ("data", "quantum_ancilla"):
                limits[register.name] = self.code.correctable_errors
            elif register.role == "classical_ancilla":
                limits[register.name] = max(0, (register.size - 1) // 2)
        return limits

    # -- surveys -----------------------------------------------------------

    def single_fault_survey(self) -> "SingleFaultSurvey":
        """Propagate every single-location Pauli fault and judge it."""
        per_location: List[List[ResidualSignature]] = []
        failures: List[Tuple[FaultLocation, PauliString]] = []
        for location, choices in zip(self.space.locations,
                                     self.space.choices):
            signatures: List[ResidualSignature] = []
            for pauli in choices:
                signature = self.signature_of(pauli, location.after_op)
                signatures.append(signature)
                if not self.is_acceptable(signature):
                    failures.append((location, pauli))
            per_location.append(_dedupe(signatures))
        return SingleFaultSurvey(
            analyzer=self,
            signatures_per_location=per_location,
            failures=failures,
        )


def _dedupe(signatures: List[ResidualSignature]) -> List[ResidualSignature]:
    seen: Set[ResidualSignature] = set()
    unique: List[ResidualSignature] = []
    for signature in signatures:
        if signature not in seen:
            seen.add(signature)
            unique.append(signature)
    return unique


@dataclass
class SingleFaultSurvey:
    """Results of propagating every single fault of a gadget."""

    analyzer: GadgetFaultAnalyzer
    signatures_per_location: List[List[ResidualSignature]]
    failures: List[Tuple[FaultLocation, PauliString]]

    @property
    def num_locations(self) -> int:
        return len(self.analyzer.locations)

    @property
    def is_fault_tolerant(self) -> bool:
        """The paper's headline property: no single fault fails."""
        return not self.failures

    def count_malignant_pairs(self) -> int:
        """Location pairs with some Pauli choice driving a failure.

        The paper's two-error counting: a pair (i, j) is malignant when
        there exist Pauli faults at i and j whose combined propagated
        residual is unacceptable.  Signature combination by support
        union is a sound over-approximation (Pauli products never have
        larger support than the union), so the count upper-bounds the
        true malignant-pair number and the derived threshold is a
        safe lower bound.
        """
        malignant = 0
        count = self.num_locations
        for i in range(count):
            for j in range(i + 1, count):
                if self._pair_is_malignant(i, j):
                    malignant += 1
        return malignant

    def _pair_is_malignant(self, i: int, j: int) -> bool:
        for first in self.signatures_per_location[i]:
            for second in self.signatures_per_location[j]:
                if not self.analyzer.is_acceptable(first.combine(second)):
                    return True
        return False
