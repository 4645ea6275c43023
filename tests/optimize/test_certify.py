"""The certification layer must be able to *fail*.

A differential suite that cannot catch a wrong rewrite proves
nothing, so this file drives a deliberately broken pass — cancelling
S·S as if S were self-inverse, the optimizer-side twin of the PR-2
``swap_s_direction`` backend bug — through the optimizer's certifying
loop and asserts it is rejected, shrunk to a 2-gate reproducer, and
never returned as a circuit.
"""

from __future__ import annotations

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import CNOT, H, S, S_DG
from repro.exceptions import OptimizationError
from repro.optimize import (
    BrokenSCancelPass,
    certify_rewrite,
    circuits_equivalent,
    equivalence_discrepancy,
)
from repro.ft.recovery import build_recovery_gadget
from repro.optimize import clear_optimize_cache, optimize_circuit, pipeline
from repro.optimize.passes import Pass, PassResult
from repro.optimize.pipeline import MAX_ROUNDS, _fixed_point
from repro.verify import check_circuit_pair, generate, circuit_seed_for


def _bug_trigger() -> Circuit:
    """A circuit the broken pass mis-rewrites, with bystander gates."""
    circuit = Circuit(2)
    circuit.add_gate(H, 0)
    circuit.add_gate(S, 1)
    circuit.add_gate(S, 1)
    circuit.add_gate(CNOT, 0, 1)
    return circuit


def test_broken_pass_is_caught_by_certified_pipeline():
    with pytest.raises(OptimizationError) as excinfo:
        _fixed_point(_bug_trigger(), (BrokenSCancelPass(),))
    message = str(excinfo.value)
    assert "broken_s_cancel" in message
    assert "gate S" in message  # the reproducer dump rides along


def test_broken_pass_shrinks_to_minimal_reproducer():
    with pytest.raises(OptimizationError) as excinfo:
        _fixed_point(_bug_trigger(), (BrokenSCancelPass(),))
    shrunk = excinfo.value.shrunk
    assert shrunk is not None
    assert len(shrunk) == 2  # S·S on one qubit is the whole bug
    assert shrunk.num_qubits == 1
    # The reproducer really is mis-rewritten by the pass.
    rewritten = BrokenSCancelPass().run(shrunk).circuit
    assert not circuits_equivalent(shrunk, rewritten)


def test_broken_pass_never_fires_on_correct_input():
    # S·S† is a correct cancellation; the broken pass does not touch
    # it, so the certifying loop passes the circuit through.
    circuit = Circuit(1)
    circuit.add_gate(S, 0)
    circuit.add_gate(S_DG, 0)
    result = _fixed_point(circuit, (BrokenSCancelPass(),))
    assert result.total_rewrites == 0


def test_certify_rewrite_accepts_identical_pair():
    circuit = _bug_trigger()
    certify_rewrite(circuit, circuit.copy(), "identity")


def test_certify_rewrite_rejects_inequivalent_pair():
    before = _bug_trigger()
    after = Circuit(2)
    after.add_gate(H, 0)
    with pytest.raises(OptimizationError):
        certify_rewrite(before, after, "bogus")


def test_certified_pipeline_clean_over_fuzz(fuzz_reporter):
    """The shipped passes certify clean: the optimizer never raises
    and certifies every pass application that rewrote anything."""
    for index in range(25):
        for family in ("clifford", "clifford_t", "gadget"):
            seed = circuit_seed_for(77, index)
            circuit = generate(family, seed, max_qubits=5,
                               max_gates=24)
            fuzz_reporter.watch(circuit, family=family, seed=seed,
                                max_qubits=5, max_gates=24,
                                note="certified pipeline")
            result = _fixed_point(circuit)
            assert result.certified_rewrites >= (
                1 if result.total_rewrites else 0)


class _CopyPass(Pass):
    """Claims ``claimed`` rewrites while returning an equal copy."""

    name = "copy"

    def __init__(self, claimed):
        self.claimed = claimed

    def run(self, circuit):
        return PassResult(circuit.copy(), self.claimed)


@pytest.fixture()
def certify_calls(monkeypatch):
    """Record every certification the optimizer makes, on an empty
    optimizer cache (the session's cache is restored afterwards)."""
    calls = []

    def spy(before, after, name, **kwargs):
        calls.append(name)
        return certify_rewrite(before, after, name, **kwargs)

    monkeypatch.setattr(pipeline, "certify_rewrite", spy)
    monkeypatch.setattr(pipeline, "_OPTIMIZE_CACHE", {})
    return calls


def test_optimized_builder_certifies_every_rewriting_pass(
        steane, certify_calls):
    """``optimize=True`` on a builder goes through certification: one
    check per pass application that rewrote anything."""
    gadget = build_recovery_gadget(steane, "X", optimize=True)
    plain = build_recovery_gadget(steane, "X")
    result = optimize_circuit(plain.circuit)  # memoised: no new calls
    assert result.circuit is gadget.circuit
    assert result.total_rewrites > 0
    assert len(certify_calls) == result.certified_rewrites > 0
    assert set(certify_calls) == {
        name for name, count in result.rewrites.items() if count}


def test_pass_that_rewrites_nothing_is_not_certified(certify_calls):
    result = _fixed_point(_bug_trigger(), (_CopyPass(0),))
    assert certify_calls == []
    assert result.converged and result.rounds == 1
    assert result.certified_rewrites == 0


def test_fixed_point_stops_unconverged_at_max_rounds(certify_calls):
    """A pass that never settles is cut off at ``MAX_ROUNDS`` and
    reported as unconverged, each of its applications certified."""
    result = _fixed_point(_bug_trigger(), (_CopyPass(1),))
    assert result.rounds == MAX_ROUNDS
    assert not result.converged
    assert result.rewrites == {"copy": MAX_ROUNDS}
    assert result.certified_rewrites == len(certify_calls) == MAX_ROUNDS


def test_optimize_circuit_is_memoised_by_structure(certify_calls):
    """Structurally equal circuits share one optimizer run; clearing
    the cache makes the next call run (and certify) again."""
    first = Circuit(3)
    first.add_gate(H, 0)  # sinks past the disjoint CNOT
    first.add_gate(CNOT, 1, 2)
    first.add_gate(CNOT, 0, 1)
    twin = Circuit(3)
    for op in first.operations:
        twin.append(op)
    result = optimize_circuit(first)
    assert result.total_rewrites > 0
    calls = len(certify_calls)
    assert optimize_circuit(twin) is result
    assert len(certify_calls) == calls
    clear_optimize_cache()
    again = optimize_circuit(twin)
    assert again is not result
    assert len(certify_calls) == 2 * calls
    assert list(again.circuit.operations) == \
        list(result.circuit.operations)


def test_equivalence_discrepancy_gradations():
    a = Circuit(1)
    a.add_gate(S, 0)
    b = Circuit(1)
    b.add_gate(S_DG, 0)
    assert equivalence_discrepancy(a, a.copy()) == 0.0
    assert equivalence_discrepancy(a, b) > 1e-3
    wider = Circuit(2)
    wider.add_gate(S, 0)
    assert equivalence_discrepancy(a, wider) == 1.0


def test_wide_register_probe_certification():
    """Above the dense-unitary cap the probe battery takes over and
    still distinguishes S from S† buried in a wide register."""
    width = 14  # > MAX_DENSE_UNITARY_QUBITS, > pair-check cap
    good = Circuit(width)
    bad = Circuit(width)
    for q in range(width):
        good.add_gate(H, q)
        bad.add_gate(H, q)
    good.add_gate(S, 7)
    bad.add_gate(S_DG, 7)
    assert circuits_equivalent(good, good.copy())
    assert not circuits_equivalent(good, bad)
    with pytest.raises(OptimizationError):
        certify_rewrite(good, bad, "wide_bug")


def test_check_circuit_pair_catches_s_direction_swap():
    before = Circuit(1)
    before.add_gate(H, 0)
    before.add_gate(S, 0)
    after = Circuit(1)
    after.add_gate(H, 0)
    after.add_gate(S_DG, 0)
    divergence = check_circuit_pair(before, after)
    assert divergence is not None
    assert "before" in divergence.backend_a \
        or "after" in divergence.backend_b


def test_check_circuit_pair_requires_same_width():
    from repro.exceptions import VerificationError

    a = Circuit(1)
    b = Circuit(2)
    with pytest.raises(VerificationError):
        check_circuit_pair(a, b)
