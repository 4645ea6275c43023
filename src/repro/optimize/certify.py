"""Differential certification of optimizer rewrites.

The optimizer's contract is the repo's: *nothing lands uncertified*.
Every before/after pair a pass produces is pushed through three
independent checks before the rewrite may stand:

1. **Exact pair equivalence** — dense unitary comparison up to global
   phase on registers small enough for
   :func:`~repro.circuits.equivalence.circuit_unitary`; seeded sparse
   probe states (basis states plus two-term superpositions with
   random relative phases, which catch permutation *and* phase
   defects) on wide gadget registers.
2. **Cross-backend pair check** — :func:`repro.verify.
   check_circuit_pair` runs both circuits through every applicable
   verify backend and compares the results, so a rewrite cannot hide
   behind a single simulator's blind spot.
3. **Oracle on the result** — :func:`repro.verify.check_circuit` on
   the rewritten circuit, keeping the optimized circuit inside the
   cross-backend agreement envelope the rest of the stack assumes.

On any divergence the failing input is shrunk with the PR-2 ddmin
shrinker (predicate: "the pass still mis-rewrites this candidate") and
the minimal reproducer is raised inside an
:class:`~repro.exceptions.OptimizationError` — a broken pass produces
a diagnosis, never a silently wrong circuit.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.circuits.circuit import Circuit, GateOp
from repro.circuits.equivalence import (
    MAX_DENSE_UNITARY_QUBITS,
    circuit_unitary,
    operators_equal_up_to_phase,
)
from repro.exceptions import OptimizationError, VerificationError
from repro.simulators.sparse import SparseState

#: Probe budget for wide-register pair checks: every qubit is touched
#: by at least one basis probe, and the superposition probes carry a
#: random relative phase so diagonal-phase defects cannot hide.
PROBE_STATES = 12

#: Infidelity above this is a divergence, not numerical noise.
PAIR_ATOL = 1e-9


def _probe_states(num_qubits: int, seed: int,
                  count: int = PROBE_STATES
                  ) -> Iterable[SparseState]:
    """Deterministic probe battery for wide-register equivalence."""
    rng = np.random.default_rng(seed if seed >= 0 else 0)
    yield SparseState(num_qubits)  # |0...0>
    for _ in range(count - 1):
        x = int(rng.integers(0, 2 ** min(num_qubits, 62)))
        y = int(rng.integers(0, 2 ** min(num_qubits, 62)))
        if x == y:
            y ^= 1
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        amp = 1.0 / np.sqrt(2.0)
        yield SparseState.from_terms(num_qubits, {
            x: amp,
            y: amp * complex(np.cos(phase), np.sin(phase)),
        })


def equivalence_discrepancy(before: Circuit, after: Circuit,
                            seed: int = 0) -> float:
    """Graded inequivalence of two circuits (0.0 = same unitary up to
    global phase).

    Dense comparison when the register fits
    :data:`~repro.circuits.equivalence.MAX_DENSE_UNITARY_QUBITS`;
    otherwise the worst probe-state infidelity over the seeded probe
    battery.  Width mismatches score 1.0 outright.
    """
    if before.num_qubits != after.num_qubits:
        return 1.0
    if before.num_qubits <= MAX_DENSE_UNITARY_QUBITS:
        if operators_equal_up_to_phase(circuit_unitary(before),
                                       circuit_unitary(after)):
            return 0.0
        return 1.0
    worst = 0.0
    for probe in _probe_states(before.num_qubits, seed):
        state_a = probe.copy()
        state_b = probe.copy()
        state_a.apply_circuit(before)
        state_b.apply_circuit(after)
        worst = max(worst, 1.0 - state_a.fidelity(state_b))
        if worst > PAIR_ATOL:
            break
    return worst


def circuits_equivalent(before: Circuit, after: Circuit,
                        seed: int = 0,
                        atol: float = PAIR_ATOL) -> bool:
    """Whether two circuits implement one unitary up to global phase."""
    return equivalence_discrepancy(before, after, seed) <= atol


def _shrink_mis_rewrite(pass_, circuit: Circuit,
                        seed: int) -> Optional[Circuit]:
    """Minimise a circuit the pass still rewrites inequivalently."""
    from repro.verify.shrink import shrink_circuit

    def predicate(candidate: Circuit) -> bool:
        result = pass_.run(candidate)
        return not circuits_equivalent(candidate, result.circuit,
                                       seed=seed)

    try:
        return shrink_circuit(circuit, predicate).circuit
    except VerificationError:
        return None


def certify_rewrite(before: Circuit, after: Circuit,
                    pass_name: str,
                    *,
                    pass_=None,
                    seed: int = 0,
                    atol: float = PAIR_ATOL,
                    frame_seed: int = 0) -> None:
    """Certify one before/after pair; raise on any divergence.

    Runs the exact pair check, the cross-backend pair check and the
    oracle on the rewritten circuit.  When ``pass_`` is given and the
    pair diverges, the *input* is shrunk to a minimal circuit the pass
    still mis-rewrites, and the reproducer rides inside the raised
    :class:`~repro.exceptions.OptimizationError`.
    """
    from repro.verify import check_circuit, check_circuit_pair
    from repro.verify.backends import MAX_STATEVECTOR_QUBITS
    from repro.verify.reporting import dump_circuit

    discrepancy = equivalence_discrepancy(before, after, seed=seed)
    divergence = None
    if discrepancy <= atol:
        divergence = check_circuit_pair(before, after, atol=atol)
        # The cross-backend legs densify; on wide gadget registers the
        # probe battery above is the certification.
        if (divergence is None
                and after.num_qubits <= MAX_STATEVECTOR_QUBITS):
            divergence = check_circuit(after, atol=atol,
                                       frame_seed=frame_seed)
    if discrepancy <= atol and divergence is None:
        return
    lines = [
        f"pass {pass_name!r} produced an uncertifiable rewrite "
        f"(discrepancy "
        f"{max(discrepancy, getattr(divergence, 'discrepancy', 0.0)):.3e})",
    ]
    if divergence is not None:
        lines.append(str(divergence))
    shrunk = (_shrink_mis_rewrite(pass_, before, seed)
              if pass_ is not None else None)
    if shrunk is not None:
        lines.append(f"minimal mis-rewritten input "
                     f"({len(shrunk)} ops):")
        lines.append(dump_circuit(shrunk))
    else:
        lines.append("mis-rewritten input:")
        lines.append(dump_circuit(before))
    error = OptimizationError("\n".join(lines))
    error.shrunk = shrunk
    error.before = before
    error.after = after
    raise error


class BrokenSCancelPass:
    """A deliberately wrong rewrite for the certification self-test.

    Cancels adjacent S·S pairs as if S were self-inverse (the same
    direction bug :func:`repro.verify.swap_s_direction` injects into
    backends).  S·S is Z, not identity, so the certification oracle
    must reject every rewrite this pass performs — a suite that
    accepts it proves nothing.
    """

    name = "broken_s_cancel"

    def run(self, circuit: Circuit):
        from repro.optimize.passes import PassResult

        out: List[GateOp] = []
        cancelled = 0
        for op in circuit.operations:
            if (out and isinstance(op, GateOp)
                    and op.gate.name == "S"
                    and isinstance(out[-1], GateOp)
                    and out[-1].gate.name == "S"
                    and out[-1].qubits == op.qubits):
                out.pop()
                cancelled += 1
                continue
            out.append(op)
        rebuilt = Circuit(circuit.num_qubits, circuit.num_clbits,
                          name=circuit.name)
        for op in out:
            rebuilt.append(op)
        return PassResult(rebuilt, cancelled)
