"""The differential oracle: cross-simulator agreement checking.

:func:`check_circuit` runs one circuit through every applicable state
backend, compares all pairs up to global phase, and — for Clifford
circuits — additionally checks the Pauli tracker's Heisenberg frame
against the state picture.  :func:`differential_sweep` drives it over
a seeded stream of generated circuits and shrinks every failure to a
minimal reproducer.

The oracle is also exported as reusable *invariant* callables
(:func:`norm_invariant`, :func:`codespace_invariant`) with the
signature the analysis engine's
validation hook expects, so Monte-Carlo runs and benchmarks can
assert simulator consistency mid-flight instead of trusting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.pauli import PauliString
from repro.codes.quantum.css import CssCode
from repro.exceptions import VerificationError
from repro.simulators.sparse import SparseState
from repro.verify import generators
from repro.verify.backends import (
    Backend,
    BackendResult,
    default_backends,
    result_discrepancy,
)
from repro.verify.metamorphic import is_clifford_circuit
from repro.verify.reporting import dump_circuit, reseed_command
from repro.verify.shrink import shrink_circuit

#: Discrepancies below this are numerical noise, not divergences.
DEFAULT_ATOL = 1e-9

#: Clifford frame checks push one X and one Z through the circuit per
#: qubit-pair sample; two probes per circuit keeps the sweep fast while
#: still touching both error species.
_FRAME_PROBES = 2


@dataclass
class Divergence:
    """Two views of one circuit disagreeing beyond tolerance."""

    backend_a: str
    backend_b: str
    discrepancy: float
    circuit: Circuit
    family: Optional[str] = None
    seed: Optional[int] = None
    shrunk: Optional[Circuit] = None
    detail: str = ""

    def __str__(self) -> str:
        lines = [
            f"divergence {self.backend_a} vs {self.backend_b}: "
            f"discrepancy {self.discrepancy:.3e}"
            + (f" ({self.detail})" if self.detail else ""),
        ]
        if self.family is not None and self.seed is not None:
            lines.append(f"family={self.family} seed={self.seed}")
        target = self.shrunk if self.shrunk is not None else self.circuit
        lines.append(dump_circuit(target))
        return "\n".join(lines)


def _frame_probe_paulis(circuit: Circuit,
                        seed: int) -> List[PauliString]:
    """Deterministic non-identity Paulis to push through the circuit."""
    probes = []
    for index in range(_FRAME_PROBES):
        probes.append(generators.random_pauli(
            circuit.num_qubits, seed * 7919 + index * 104729 + 1,
        ))
    return probes


def check_circuit(circuit: Circuit,
                  backends: Optional[Sequence[Backend]] = None,
                  atol: float = DEFAULT_ATOL,
                  frame_checks: bool = True,
                  frame_seed: int = 0) -> Optional[Divergence]:
    """Run one circuit through every backend pair; None means agreement.

    State backends are compared pairwise up to global phase.  When the
    circuit is Clifford and ``frame_checks`` is on, the Pauli tracker
    is cross-checked against the state-vector picture via the
    commutation property ``C P = (C P C^dag) C`` on seeded probe
    Paulis.  The first divergence found is returned (un-shrunk; see
    :func:`differential_sweep` for shrinking).
    """
    from repro.verify.metamorphic import pauli_frame_discrepancy

    if backends is None:
        backends = default_backends()
    results: List[BackendResult] = []
    for backend in backends:
        if backend.supports(circuit):
            results.append(backend.run(circuit))
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            discrepancy = result_discrepancy(results[i], results[j])
            if discrepancy > atol:
                return Divergence(
                    backend_a=results[i].backend,
                    backend_b=results[j].backend,
                    discrepancy=discrepancy,
                    circuit=circuit,
                )
    if frame_checks and is_clifford_circuit(circuit):
        for pauli in _frame_probe_paulis(circuit, frame_seed):
            discrepancy = pauli_frame_discrepancy(circuit, pauli)
            if discrepancy > max(atol, 1e-7):
                return Divergence(
                    backend_a="pauli_tracker",
                    backend_b="statevector",
                    discrepancy=discrepancy,
                    circuit=circuit,
                    detail=f"probe {pauli!r}",
                )
    return None


def check_circuit_pair(before: Circuit,
                       after: Circuit,
                       backends: Optional[Sequence[Backend]] = None,
                       atol: float = DEFAULT_ATOL
                       ) -> Optional[Divergence]:
    """Differentially compare two circuits claimed equivalent.

    Runs *both* circuits through every backend that supports both and
    compares the ``before`` output of each backend against the
    ``after`` output of every backend (including itself), so a rewrite
    bug cannot hide behind a single simulator's blind spot and a
    backend bug cannot mask a rewrite bug.  This is the cross-backend
    leg of the optimizer's rewrite certification: ``None`` means every
    view agrees the two circuits act identically on ``|0...0>``.

    Backends are width-capped at
    :data:`~repro.verify.backends.MAX_STATEVECTOR_QUBITS` even when a
    backend reports wider support, because comparing results densifies
    both states; wide-register pairs are certified with sparse probe
    states by :mod:`repro.optimize.certify` instead.
    """
    from repro.verify.backends import MAX_STATEVECTOR_QUBITS

    if backends is None:
        backends = default_backends()
    if before.num_qubits != after.num_qubits:
        raise VerificationError(
            "check_circuit_pair compares same-register circuits; lift "
            f"the rewritten circuit first (got {before.num_qubits} vs "
            f"{after.num_qubits} qubits)"
        )
    if before.num_qubits > MAX_STATEVECTOR_QUBITS:
        return None
    pairs: List[Tuple[BackendResult, BackendResult]] = []
    for backend in backends:
        if backend.supports(before) and backend.supports(after):
            pairs.append((backend.run(before), backend.run(after)))
    for result_before, _ in pairs:
        for _, result_after in pairs:
            discrepancy = result_discrepancy(result_before,
                                             result_after)
            if discrepancy > atol:
                return Divergence(
                    backend_a=result_before.backend + ":before",
                    backend_b=result_after.backend + ":after",
                    discrepancy=discrepancy,
                    circuit=after,
                    detail="before/after rewrite pair",
                )
    return None


def divergence_predicate(backends: Optional[Sequence[Backend]] = None,
                         atol: float = DEFAULT_ATOL,
                         frame_checks: bool = False
                         ) -> Callable[[Circuit], bool]:
    """A shrinker predicate: True when the circuit still diverges."""
    def predicate(candidate: Circuit) -> bool:
        return check_circuit(candidate, backends=backends, atol=atol,
                             frame_checks=frame_checks) is not None
    return predicate


@dataclass
class SweepReport:
    """Everything a differential sweep found."""

    circuits_run: int
    families: Tuple[str, ...]
    seed: int
    max_qubits: int
    max_gates: int
    divergences: List[Divergence] = field(default_factory=list)
    backend_names: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [
            f"differential sweep: {self.circuits_run} circuits "
            f"(families {', '.join(self.families)}; seed {self.seed}) "
            f"across backends {', '.join(self.backend_names)}: "
            f"{len(self.divergences)} divergence(s)",
        ]
        for divergence in self.divergences:
            lines.append(str(divergence))
            if divergence.family is not None \
                    and divergence.seed is not None:
                lines.append(reseed_command(
                    divergence.family, divergence.seed,
                    self.max_qubits, self.max_gates,
                ))
        return "\n".join(lines)


def circuit_seed_for(base_seed: int, index: int) -> int:
    """The per-circuit seed of sweep item ``index`` (reproducible)."""
    return int(base_seed * 1_000_003 + index)


def _divergence_payload(divergence: Divergence) -> dict:
    """JSON form of a divergence for the sweep journal."""
    from repro.verify.reporting import dump_circuit as dump

    return {
        "backend_a": divergence.backend_a,
        "backend_b": divergence.backend_b,
        "discrepancy": float(divergence.discrepancy),
        "family": divergence.family,
        "seed": divergence.seed,
        "detail": divergence.detail,
        "circuit": dump(divergence.circuit),
        "shrunk": (dump(divergence.shrunk)
                   if divergence.shrunk is not None else None),
    }


def _divergence_from_payload(payload: dict) -> Divergence:
    from repro.verify.reporting import parse_dump

    return Divergence(
        backend_a=payload["backend_a"],
        backend_b=payload["backend_b"],
        discrepancy=float(payload["discrepancy"]),
        circuit=parse_dump(payload["circuit"]),
        family=payload.get("family"),
        seed=payload.get("seed"),
        shrunk=(parse_dump(payload["shrunk"])
                if payload.get("shrunk") else None),
        detail=payload.get("detail", ""),
    )


def differential_sweep(num_circuits: int,
                       seed: int = 0,
                       families: Sequence[str] = ("clifford",
                                                  "clifford_t",
                                                  "gadget"),
                       max_qubits: int = 6,
                       max_gates: int = 40,
                       backends: Optional[Sequence[Backend]] = None,
                       atol: float = DEFAULT_ATOL,
                       shrink: bool = True,
                       stop_on_first: bool = False,
                       checkpoint=None,
                       flush_every: int = 25) -> SweepReport:
    """Fuzz ``num_circuits`` seeded circuits through the oracle.

    Circuit ``i`` uses family ``families[i % len]`` and seed
    :func:`circuit_seed_for(seed, i)`, so every item is independently
    reproducible.  Failures are shrunk to minimal reproducers (state
    comparisons only — the frame property is re-checked separately on
    the shrunk circuit and reported as-is when it is the diverging
    pair).

    ``checkpoint`` (a run directory or
    :class:`~repro.runtime.CheckpointStore`) journals progress every
    ``flush_every`` circuits — and immediately on every divergence, so
    a found bug survives any crash.  A matching journal always
    fast-forwards past already-checked circuits; each circuit
    is pinned by its own seed, so the resumed report equals the
    uninterrupted one.  A corrupted journal raises
    :class:`~repro.exceptions.CheckpointError`.
    """
    from repro.runtime.checkpoint import as_store

    if backends is None:
        backends = default_backends()
    report = SweepReport(
        circuits_run=0,
        families=tuple(families),
        seed=seed,
        max_qubits=max_qubits,
        max_gates=max_gates,
        backend_names=tuple(b.name for b in backends),
    )
    store = as_store(checkpoint)
    start_index = 0
    if store is not None:
        fingerprint = {
            "workload": "differential_sweep",
            "num_circuits": int(num_circuits),
            "seed": int(seed),
            "families": list(families),
            "max_qubits": int(max_qubits),
            "max_gates": int(max_gates),
            "backends": [b.name for b in backends],
            "atol": float(atol),
            "shrink": bool(shrink),
            "stop_on_first": bool(stop_on_first),
        }
        if store.exists():
            store.check_fingerprint(fingerprint)
            for record in store.load_records("circuits"):
                start_index = max(start_index,
                                  int(record["through_index"]))
                for payload in record.get("divergences", []):
                    report.divergences.append(
                        _divergence_from_payload(payload))
            report.circuits_run = start_index
        else:
            store.clear()
            store.write_header(fingerprint)

    unflushed: List[Divergence] = []
    last_flushed = start_index

    def _flush(through_index: int) -> None:
        nonlocal last_flushed, unflushed
        if store is None:
            return
        if through_index == last_flushed and not unflushed:
            return
        store.append_record("circuits", {
            "through_index": through_index,
            "divergences": [_divergence_payload(d) for d in unflushed],
        })
        last_flushed = through_index
        unflushed = []

    for index in range(start_index, num_circuits):
        family = families[index % len(families)]
        circuit_seed = circuit_seed_for(seed, index)
        circuit = generators.generate(family, circuit_seed,
                                      max_qubits=max_qubits,
                                      max_gates=max_gates)
        divergence = check_circuit(circuit, backends=backends,
                                   atol=atol, frame_seed=circuit_seed)
        report.circuits_run += 1
        if divergence is None:
            if (index + 1 - last_flushed) >= max(1, flush_every):
                _flush(index + 1)
            continue
        divergence.family = family
        divergence.seed = circuit_seed
        if shrink:
            frame_pair = divergence.backend_a == "pauli_tracker"
            predicate = divergence_predicate(
                backends=backends, atol=atol, frame_checks=frame_pair,
            )
            try:
                divergence.shrunk = shrink_circuit(
                    circuit, predicate).circuit
            except VerificationError:
                divergence.shrunk = None
        report.divergences.append(divergence)
        unflushed.append(divergence)
        _flush(index + 1)
        if stop_on_first:
            break
    _flush(report.circuits_run)
    if store is not None:
        store.finalize({
            "circuits_run": report.circuits_run,
            "divergences": len(report.divergences),
        })
    return report


# ---------------------------------------------------------------------------
# Engine invariants (the oracle hook of repro.analysis.engine)
# ---------------------------------------------------------------------------

def norm_invariant(atol: float = 1e-6) -> Callable[[SparseState], None]:
    """Invariant: the simulated state stays normalised.

    Unitary gates and Pauli faults both preserve the norm, so any
    drift flags a simulator defect (e.g. a broken merge/prune pass).
    """
    def check(state: SparseState) -> None:
        norm = float(np.linalg.norm(
            np.array(list(state.terms().values()))
        ))
        if abs(norm - 1.0) > atol:
            raise VerificationError(
                f"norm invariant violated: |psi| = {norm:.9f}"
            )
    return check


def codespace_invariant(code: CssCode, block: Sequence[int],
                        atol: float = 1e-7
                        ) -> Callable[[SparseState], None]:
    """Invariant: a block stays in the code space (noiseless runs).

    Only valid for fault-free validation runs — injected faults move
    states off the code space by design.  Useful for certifying that
    a gadget's *ideal* execution never leaks out of the code space.
    """
    block = list(block)

    def check(state: SparseState) -> None:
        for generator in code.stabilizer_generators():
            embedded = generator.embedded(state.num_qubits, block)
            expectation = state.expectation_pauli(embedded)
            if abs(1.0 - expectation.real) > atol \
                    or abs(expectation.imag) > atol:
                raise VerificationError(
                    f"codespace invariant violated: <{generator!r}> "
                    f"= {expectation:.9f}"
                )
    return check


