"""Metamorphic properties of pass composition.

Reference-free checks on the optimizer as a whole: a fixed point is
really fixed (idempotence), the pass order changes the route but not
the destination's semantics (permutation equivalence), optimized
Steane gadgets still preserve the code space, and optimization never
*increases* the paper's fault-location bill.
"""

from __future__ import annotations

import itertools

import pytest

from repro.ft.gadget import apply_circuit_with_faults
from repro.ft.ngate import build_n_gadget
from repro.ft.recovery import build_recovery_gadget, \
    recovery_ancilla_state
from repro.ft.t_gadget import build_t_gadget, t_gadget_inputs
from repro.noise.locations import count_locations
from repro.optimize import circuits_equivalent, optimize_gadget
from repro.optimize.pipeline import PASSES, _fixed_point
from repro.ft.special_states import sparse_coset_state, \
    sparse_logical_state
from repro.verify import circuit_seed_for, codespace_invariant, generate

SWEEP_SEED = 20260806


def _fuzz_circuits(count=20, seed=SWEEP_SEED):
    for index in range(count):
        for family in ("clifford", "clifford_t", "gadget"):
            yield generate(family, circuit_seed_for(seed, index),
                           max_qubits=5, max_gates=24)


def test_pipeline_idempotent_at_fixed_point(fuzz_reporter):
    for circuit in _fuzz_circuits():
        fuzz_reporter.watch(circuit, note="pipeline idempotence")
        first = _fixed_point(circuit)
        assert first.converged
        second = _fixed_point(first.circuit)
        assert second.total_rewrites == 0
        assert second.rounds == 1
        assert list(second.circuit.operations) == \
            list(first.circuit.operations)


def test_optimizer_idempotent_on_steane_gadgets(steane):
    for build in (build_n_gadget, build_t_gadget,
                  build_recovery_gadget):
        optimized = build(steane, optimize=True)
        again = _fixed_point(optimized.circuit)
        assert again.total_rewrites == 0, optimized.name


@pytest.mark.parametrize("order", list(itertools.permutations(PASSES)),
                         ids=lambda o: "-".join(p.name for p in o))
def test_pass_order_permutations_equivalent(order, fuzz_reporter):
    """Either pass order lands on a circuit equivalent to the input
    and to the shipped order's (the schedules may differ)."""
    for circuit in _fuzz_circuits(count=10):
        fuzz_reporter.watch(circuit, note=f"order={order}")
        a = _fixed_point(circuit, order).circuit
        b = _fixed_point(circuit).circuit
        assert circuits_equivalent(circuit, a)
        assert circuits_equivalent(a, b)


def test_optimized_n_gadget_preserves_codespace(steane):
    gadget = build_n_gadget(steane, optimize=True)
    invariant = codespace_invariant(steane,
                                    gadget.qubits("quantum"))
    state = gadget.initial_state(
        {"quantum": sparse_coset_state(steane, 0)})
    apply_circuit_with_faults(state, gadget.circuit, [])
    invariant(state)  # raises VerificationError on violation


def test_optimized_t_gadget_preserves_codespace(steane):
    gadget = build_t_gadget(steane, optimize=True)
    invariant = codespace_invariant(steane, gadget.qubits("data"))
    data = sparse_logical_state(steane, {(0,): 1.0})
    state = gadget.initial_state(
        t_gadget_inputs(gadget, steane, data))
    apply_circuit_with_faults(state, gadget.circuit, [])
    invariant(state)


def test_optimized_recovery_gadget_preserves_codespace(steane):
    gadget = build_recovery_gadget(steane, "X", optimize=True)
    invariant = codespace_invariant(steane, gadget.qubits("data"))
    data = sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8})
    state = gadget.initial_state({
        "data": data,
        "ancilla": recovery_ancilla_state(steane, "X"),
    })
    apply_circuit_with_faults(state, gadget.circuit, [])
    invariant(state)


def test_optimization_never_increases_location_count(steane):
    for build in (build_n_gadget, build_t_gadget):
        plain = build(steane)
        optimized = build(steane, optimize=True)
        before = count_locations(plain.circuit)["total"]
        after = count_locations(optimized.circuit)["total"]
        assert after <= before, plain.name


def test_optimized_gadget_keeps_identity_and_registers(steane):
    plain = build_n_gadget(steane)
    optimized = build_n_gadget(steane, optimize=True)
    assert optimized.name == plain.name
    assert optimized.registers == plain.registers
    assert optimized.data_blocks == plain.data_blocks
    assert optimized.output_blocks == plain.output_blocks
    assert optimized.circuit.num_qubits == plain.circuit.num_qubits


def test_optimized_gadget_default_locations_shrink(steane):
    plain = build_n_gadget(steane)
    optimized = optimize_gadget(plain)
    assert len(optimized.fault_locations()) < \
        len(plain.fault_locations())
