"""Tests for the measurement-free Toffoli gadget (Fig. 4)."""

import itertools
import math

import pytest

from repro.ft import (
    and_resource_state,
    build_toffoli_gadget,
    expected_toffoli_output,
    run_toffoli_gadget,
    sparse_coset_state,
    sparse_logical_state,
)


def output_block(gadget):
    return (gadget.qubits("and_a") + gadget.qubits("and_b")
            + gadget.qubits("and_c"))


class TestLogicalActionTrivial:
    """Exact verification of the full Fig. 4 circuit logic."""

    @pytest.mark.parametrize("x,y,z",
                             list(itertools.product((0, 1), repeat=3)))
    def test_all_basis_states(self, trivial, x, y, z):
        gadget = build_toffoli_gadget(trivial)
        out = run_toffoli_gadget(
            gadget, trivial,
            sparse_coset_state(trivial, x),
            sparse_coset_state(trivial, y),
            sparse_coset_state(trivial, z),
        )
        expected = expected_toffoli_output(trivial, {(x, y, z): 1.0})
        assert out.block_overlap(output_block(gadget), expected) \
            > 1 - 1e-10

    def test_product_superposition(self, trivial):
        gadget = build_toffoli_gadget(trivial)
        dx = sparse_logical_state(trivial, {(0,): 0.6, (1,): 0.8})
        dy = sparse_logical_state(
            trivial, {(0,): 1 / math.sqrt(2), (1,): 1j / math.sqrt(2)}
        )
        dz = sparse_logical_state(trivial, {(0,): 0.8, (1,): -0.6})
        out = run_toffoli_gadget(gadget, trivial, dx, dy, dz)
        amplitudes = {}
        for x, y, z in itertools.product((0, 1), repeat=3):
            a = (0.6 if x == 0 else 0.8)
            b = (1 / math.sqrt(2)) if y == 0 else 1j / math.sqrt(2)
            c = 0.8 if z == 0 else -0.6
            amplitudes[(x, y, z)] = a * b * c
        expected = expected_toffoli_output(trivial, amplitudes)
        assert out.block_overlap(output_block(gadget), expected) \
            > 1 - 1e-9

    def test_matches_measured_baseline(self, trivial):
        from repro.ft.baselines import MeasuredToffoli

        baseline = MeasuredToffoli(trivial, seed=5)
        for x, y, z in itertools.product((0, 1), repeat=3):
            result = baseline.run(
                sparse_coset_state(trivial, x),
                sparse_coset_state(trivial, y),
                sparse_coset_state(trivial, z),
            )
            expected = expected_toffoli_output(trivial, {(x, y, z): 1.0})
            assert result.state.block_overlap([0, 1, 2], expected) \
                > 1 - 1e-10

    def test_phase_coherence(self, trivial):
        """CCZ-like phase structure survives: Toffoli twice = identity,
        including phases (catches sign errors in the m3 correction)."""
        gadget = build_toffoli_gadget(trivial)
        dx = sparse_logical_state(trivial, {(0,): 0.6, (1,): 0.8})
        dy = sparse_logical_state(trivial, {(0,): 0.8, (1,): 0.6})
        dz = sparse_logical_state(
            trivial, {(0,): 1 / math.sqrt(2), (1,): -1j / math.sqrt(2)}
        )
        out = run_toffoli_gadget(gadget, trivial, dx, dy, dz)
        amplitudes = {}
        for x, y, z in itertools.product((0, 1), repeat=3):
            a = 0.6 if x == 0 else 0.8
            b = 0.8 if y == 0 else 0.6
            c = (1 / math.sqrt(2)) if z == 0 else -1j / math.sqrt(2)
            amplitudes[(x, y, z)] = a * b * c
        expected = expected_toffoli_output(trivial, amplitudes)
        assert out.block_overlap(output_block(gadget), expected) \
            > 1 - 1e-9


class TestResourceState:
    def test_and_resource_structure(self, steane):
        state = and_resource_state(steane)
        assert state.num_qubits == 21
        assert state.num_terms == 4 * 8 * 8 * 8

    def test_gadget_register_inventory(self, steane):
        gadget = build_toffoli_gadget(steane)
        for name in ("and_a", "and_b", "and_c", "data_x", "data_y",
                     "data_z", "m1", "m2", "m3", "m12"):
            assert gadget.register(name).size == 7

    def test_structure(self, steane):
        from repro.ft.conditions import (
            assert_fault_tolerant_structure,
            classical_control_only,
        )

        gadget = build_toffoli_gadget(steane)
        assert_fault_tolerant_structure(gadget)
        assert classical_control_only(gadget)
        assert gadget.circuit.is_ensemble_safe()


class TestSteaneScale:
    @pytest.mark.slow
    def test_steane_basis_state(self, steane):
        """Full 154-qubit exact run of Fig. 4 (2M sparse terms,
        ~35 s with the lexsort-merge engine)."""
        gadget = build_toffoli_gadget(steane)
        out = run_toffoli_gadget(
            gadget, steane,
            sparse_coset_state(steane, 1),
            sparse_coset_state(steane, 1),
            sparse_coset_state(steane, 0),
        )
        expected = expected_toffoli_output(steane, {(1, 1, 0): 1.0})
        assert out.block_overlap(output_block(gadget), expected) \
            > 1 - 1e-9

    @pytest.mark.veryslow
    def test_steane_superposition(self, steane):
        """154 qubits with superposed data (4M terms, ~2.5 min)."""
        gadget = build_toffoli_gadget(steane)
        out = run_toffoli_gadget(
            gadget, steane,
            sparse_logical_state(steane, {(0,): 0.6, (1,): 0.8}),
            sparse_coset_state(steane, 1),
            sparse_coset_state(steane, 0),
        )
        expected = expected_toffoli_output(
            steane, {(0, 1, 0): 0.6, (1, 1, 0): 0.8}
        )
        assert out.block_overlap(output_block(gadget), expected) \
            > 1 - 1e-9

    @pytest.mark.veryslow
    def test_steane_sampled_single_faults(self, steane):
        """A random sample of single faults on the full Fig. 4 gadget,
        judged by ideal recovery of the three result blocks."""
        import numpy as np

        from repro.analysis import recovered_overlap_evaluator
        from repro.ft.gadget import apply_circuit_with_faults
        from repro.ft.toffoli_gadget import (
            toffoli_initial_state,
            toffoli_inputs,
        )
        from repro.noise import NoiseModel

        gadget = build_toffoli_gadget(steane)
        initial = toffoli_initial_state(
            gadget, steane,
            toffoli_inputs(gadget, steane,
                           sparse_coset_state(steane, 1),
                           sparse_coset_state(steane, 1),
                           sparse_coset_state(steane, 0)),
        )
        expected = expected_toffoli_output(steane, {(1, 1, 0): 1.0})
        evaluator = recovered_overlap_evaluator(
            gadget, steane, ["and_a", "and_b", "and_c"], expected
        )
        locations = gadget.fault_locations()
        model = NoiseModel.uniform(1.0)
        rng = np.random.default_rng(97)
        # Each ideal-recovery evaluation walks six Steane blocks of a
        # ~2M-term state (~5 min, several GB); keep the sample tiny.
        for _ in range(2):
            location = locations[int(rng.integers(len(locations)))]
            choices = model.fault_choices(location, gadget.num_qubits)
            pauli = choices[int(rng.integers(len(choices)))]
            state = initial.copy()
            apply_circuit_with_faults(state, gadget.circuit,
                                      [(pauli, location.after_op)])
            assert evaluator(state), (
                f"single fault {pauli.label()} at {location.detail} "
                "broke the Steane Toffoli gadget"
            )
