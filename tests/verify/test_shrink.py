"""Shrinker + bug-injection self-test: the oracle must catch itself.

A verification subsystem that has never seen a failure is untested.
These tests wrap a backend in :class:`GateRewriteBackend` with a
precisely known bug (S confused with S_DG; CNOT control/target
swapped), then require the full pipeline — sweep, detection, ddmin
shrinking — to find it and reduce it to a <= 5-gate reproducer, per
the ISSUE acceptance gate.

The shrunk S-direction reproducer is additionally pinned verbatim (as
``parse_dump`` text) so the minimal divergence stays reproducible
without re-running the sweep.
"""

import pytest

from repro.circuits import gates
from repro.circuits.circuit import Circuit
from repro.exceptions import VerificationError
from repro.verify import (
    GateRewriteBackend,
    SparseBackend,
    StatevectorBackend,
    check_circuit,
    differential_sweep,
    divergence_predicate,
    parse_dump,
    reverse_cnot,
    shrink_circuit,
    swap_s_direction,
)


def _buggy_backends(rewrite):
    return [StatevectorBackend(),
            GateRewriteBackend(SparseBackend(), rewrite)]


class TestInjectedBugSelfTest:
    """Acceptance gate: deliberate bug caught and shrunk to <=5 gates."""

    @pytest.mark.parametrize("rewrite,name", [
        (swap_s_direction, "s-direction"),
        (reverse_cnot, "cnot-direction"),
    ])
    def test_sweep_catches_and_shrinks_injected_bug(self, rewrite,
                                                    name):
        backends = _buggy_backends(rewrite)
        report = differential_sweep(60, seed=3, families=("clifford",),
                                    backends=backends,
                                    stop_on_first=True)
        assert not report.clean, f"{name} bug was never detected"
        divergence = report.divergences[0]
        assert divergence.discrepancy > 0.01
        assert divergence.shrunk is not None
        assert len(divergence.shrunk) <= 5, (
            f"{name} reproducer not minimal: "
            f"{len(divergence.shrunk)} gates"
        )
        # the shrunk circuit still reproduces the divergence ...
        assert check_circuit(divergence.shrunk,
                             backends=backends) is not None
        # ... and is a genuine divergence, not an oracle artifact:
        # correct backends agree on the very same circuit
        assert check_circuit(divergence.shrunk) is None

    def test_sweep_report_prints_reseed_command(self):
        backends = _buggy_backends(swap_s_direction)
        report = differential_sweep(60, seed=3, families=("clifford",),
                                    backends=backends,
                                    stop_on_first=True)
        summary = report.summary()
        assert "divergence" in summary
        assert "PYTHONPATH=src" in summary
        assert "generate('clifford'" in summary


#: The minimal S-direction reproducer the sweep above shrinks to,
#: pinned so the regression survives independent of sweep seeds.
PINNED_S_BUG_REPRODUCER = """
circuit s-direction-bug
qubits 1
clbits 0
gate H 0
gate S 0
"""


class TestPinnedReproducer:
    def test_pinned_circuit_still_separates_buggy_backend(self):
        circuit = parse_dump(PINNED_S_BUG_REPRODUCER)
        divergence = check_circuit(
            circuit, backends=_buggy_backends(swap_s_direction))
        assert divergence is not None
        assert divergence.discrepancy > 0.1

    def test_pinned_circuit_is_clean_on_real_backends(self,
                                                      fuzz_reporter):
        circuit = parse_dump(PINNED_S_BUG_REPRODUCER)
        fuzz_reporter.watch(circuit, note="pinned S-direction circuit")
        assert check_circuit(circuit) is None


class TestShrinkCircuit:
    def _circuit_with_noise(self):
        circuit = Circuit(4, name="haystack")
        for qubit in range(4):
            circuit.add_gate(gates.H, qubit)
        circuit.add_gate(gates.CNOT, 0, 1)
        circuit.add_gate(gates.S, 3)  # the needle
        circuit.add_gate(gates.CZ, 1, 2)
        for qubit in range(4):
            circuit.add_gate(gates.X, qubit)
        return circuit

    @staticmethod
    def _has_s(circuit):
        from repro.circuits.circuit import GateOp

        return any(isinstance(op, GateOp) and op.gate.name == "S"
                   for op in circuit.operations)

    def test_shrinks_to_single_needle_operation(self):
        result = shrink_circuit(self._circuit_with_noise(), self._has_s)
        assert len(result.circuit) == 1
        assert result.original_ops == 11
        assert self._has_s(result.circuit)

    def test_compacts_unused_qubits(self):
        result = shrink_circuit(self._circuit_with_noise(), self._has_s)
        assert result.circuit.num_qubits == 1

    def test_raises_when_predicate_never_held(self):
        circuit = Circuit(2)
        circuit.add_gate(gates.H, 0)
        with pytest.raises(VerificationError, match="does not hold"):
            shrink_circuit(circuit, self._has_s)

    def test_predicate_exceptions_count_as_not_reproducing(self):
        circuit = self._circuit_with_noise()

        def brittle(candidate):
            if len(candidate) < 2:
                raise RuntimeError("oracle crashed on tiny circuit")
            return self._has_s(candidate)

        result = shrink_circuit(circuit, brittle)
        assert len(result.circuit) == 2  # cannot go below the crash line
        assert self._has_s(result.circuit)

    def test_respects_check_budget(self):
        calls = []

        def predicate(candidate):
            calls.append(1)
            return self._has_s(candidate)

        shrink_circuit(self._circuit_with_noise(), predicate,
                       max_checks=5)
        assert len(calls) <= 5

    def test_divergence_predicate_wraps_check_circuit(self):
        backends = _buggy_backends(swap_s_direction)
        predicate = divergence_predicate(backends=backends)
        diverging = parse_dump(PINNED_S_BUG_REPRODUCER)
        clean = Circuit(1)
        clean.add_gate(gates.H, 0)
        assert predicate(diverging)
        assert not predicate(clean)
