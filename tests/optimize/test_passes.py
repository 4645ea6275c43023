"""Property-based certification of both gadget-optimizer passes.

Each pass sweeps >= 200 seeded circuits (per family split) from the
PR-2 generators; every rewrite must be equivalent to its input up to
global phase — checked three ways: exact dense unitaries, the
cross-backend :func:`repro.verify.check_circuit_pair` differential,
and the post-rewrite :func:`repro.verify.check_circuit` oracle.  The
``fuzz_reporter`` fixture dumps the failing circuit plus a reseed
command on any failure.
"""

from __future__ import annotations

import os

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.gates import CNOT, H, Z
from repro.optimize import (
    CommuteSinkPass,
    ReduceIdlePass,
    circuits_equivalent,
    ops_commute,
)
from repro.optimize.pipeline import PASSES
from repro.verify import (
    check_circuit,
    check_circuit_pair,
    circuit_seed_for,
    generate,
)

#: Total fuzzed circuits per pass (split across the three families).
EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "210"))
SWEEP_SEED = 20260806
FAMILIES = ("clifford", "clifford_t", "gadget")
MAX_QUBITS = 5
MAX_GATES = 24


def _sweep_items():
    per_family = max(1, EXAMPLES // len(FAMILIES))
    for family in FAMILIES:
        for index in range(per_family):
            seed = circuit_seed_for(SWEEP_SEED, index)
            yield family, seed


@pytest.mark.parametrize("pass_", PASSES, ids=lambda p: p.name)
def test_pass_preserves_semantics_over_fuzzed_sweep(pass_,
                                                    fuzz_reporter):
    checked = 0
    for family, seed in _sweep_items():
        circuit = generate(family, seed, max_qubits=MAX_QUBITS,
                           max_gates=MAX_GATES)
        fuzz_reporter.watch(circuit, family=family, seed=seed,
                            max_qubits=MAX_QUBITS,
                            max_gates=MAX_GATES,
                            note=f"pass={pass_.name}")
        rewritten = pass_.run(circuit).circuit
        assert circuits_equivalent(circuit, rewritten), (
            f"{pass_.name} broke seed {seed} ({family})")
        divergence = check_circuit_pair(circuit, rewritten)
        assert divergence is None, str(divergence)
        divergence = check_circuit(rewritten)
        assert divergence is None, str(divergence)
        checked += 1
    assert checked >= min(EXAMPLES, 3 * (EXAMPLES // 3))


@pytest.mark.parametrize("pass_", PASSES, ids=lambda p: p.name)
def test_pass_is_idempotent_on_own_output(pass_, fuzz_reporter):
    """A pass re-run on its own output must find nothing to rewrite.

    This is what makes the pipeline's fixed-point detection sound: a
    pass that keeps oscillating would spin the loop to MAX_ROUNDS.
    """
    for family, seed in _sweep_items():
        circuit = generate(family, seed, max_qubits=MAX_QUBITS,
                           max_gates=MAX_GATES)
        fuzz_reporter.watch(circuit, family=family, seed=seed,
                            max_qubits=MAX_QUBITS,
                            max_gates=MAX_GATES,
                            note=f"idempotence pass={pass_.name}")
        once = pass_.run(circuit).circuit
        again = pass_.run(once)
        assert again.rewrites == 0, (
            f"{pass_.name} rewrote its own output on seed {seed}")


def test_commute_sink_defers_past_disjoint_gates():
    circuit = Circuit(3)
    circuit.add_gate(Z, 2)
    circuit.add_gate(CNOT, 0, 1)
    circuit.add_gate(CNOT, 1, 2)
    result = CommuteSinkPass().run(circuit)
    names = [(op.gate.name, op.qubits)
             for op in result.circuit.operations]
    assert names == [("CNOT", (0, 1)), ("Z", (2,)),
                     ("CNOT", (1, 2))]
    assert result.rewrites == 1


def test_reduce_idle_never_increases_idle_count():
    for family, seed in _sweep_items():
        circuit = generate(family, seed, max_qubits=MAX_QUBITS,
                           max_gates=MAX_GATES)
        before = len(circuit.idle_locations())
        after = len(ReduceIdlePass().run(circuit)
                    .circuit.idle_locations())
        assert after <= before


def test_reduce_idle_only_swaps_commuting_pairs():
    # Anti-commuting pair: HX != XH — must never be reordered even if
    # a swap would look profitable, so the op sequence is unchanged.
    from repro.circuits.gates import X

    circuit = Circuit(2)
    circuit.add_gate(H, 0)
    circuit.add_gate(X, 0)
    circuit.add_gate(CNOT, 0, 1)
    result = ReduceIdlePass().run(circuit)
    assert [op.gate.name for op in result.circuit.operations] == \
        [op.gate.name for op in circuit.operations]


def test_ops_commute_matrix_cases():
    z = Circuit(2)
    z.add_gate(Z, 0)
    z.add_gate(CNOT, 0, 1)
    z_op, cnot_op = z.operations
    assert ops_commute(z_op, cnot_op)  # Z on a CNOT control
    x = Circuit(2)
    from repro.circuits.gates import X

    x.add_gate(X, 0)
    x.add_gate(CNOT, 0, 1)
    x_op, cnot_op = x.operations
    assert not ops_commute(x_op, cnot_op)  # X on a control does not


def test_measurements_are_rewrite_barriers():
    circuit = Circuit(1, 1)
    circuit.add_gate(H, 0)
    circuit.measure(0, 0)
    circuit.add_gate(H, 0)
    for pass_ in (CommuteSinkPass(), ReduceIdlePass()):
        result = pass_.run(circuit)
        kinds = [type(op).__name__
                 for op in result.circuit.operations]
        assert kinds == ["GateOp", "MeasureOp", "GateOp"], pass_.name
