"""Differential oracle: cross-backend agreement on fuzzed circuits.

This is the acceptance gate for the whole simulator stack: every
threshold figure assumes the dense, sparse and density-matrix engines
compute the same physics, and these tests check that assumption on a
seeded stream of generated circuits (>= 200 in the default CI sweep).

The sweep is deterministic — circuit ``i`` is fully determined by
``circuit_seed_for(SWEEP_SEED, i)`` — and its width is controlled by
``REPRO_FUZZ_EXAMPLES`` so CI runs a capped pass while a nightly or
local run can sweep far wider with no code change::

    REPRO_FUZZ_EXAMPLES=5000 python -m pytest tests/verify

On failure the ``fuzz_reporter`` fixture prints the failing circuit's
QASM-like dump and its reseed one-liner.
"""

import os

import pytest

from repro.circuits import circuit_unitary, operators_equal_up_to_phase
from repro.exceptions import VerificationError
from repro.verify import (
    FAMILIES,
    check_circuit,
    circuit_seed_for,
    default_backends,
    differential_sweep,
    dump_circuit,
    generate,
    parse_dump,
    reseed_command,
)

#: Sweep width; the CI default (210) satisfies the >=200-circuit gate.
EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "210"))

#: One fixed sweep seed so CI failures reproduce byte-for-byte.
SWEEP_SEED = 20260806

ALL_FAMILIES = tuple(sorted(FAMILIES))


def _sweep_items():
    for index in range(EXAMPLES):
        family = ALL_FAMILIES[index % len(ALL_FAMILIES)]
        yield index, family, circuit_seed_for(SWEEP_SEED, index)


class TestDifferentialSweep:
    def test_all_backends_agree_on_fuzzed_circuits(self, fuzz_reporter):
        """The >=200-circuit CI sweep: zero divergences allowed."""
        backends = default_backends()
        checked = 0
        for _, family, seed in _sweep_items():
            circuit = generate(family, seed)
            fuzz_reporter.watch(circuit, family=family, seed=seed,
                                max_qubits=6, max_gates=40)
            divergence = check_circuit(circuit, backends=backends,
                                       frame_seed=seed)
            assert divergence is None, str(divergence)
            checked += 1
        assert checked >= min(EXAMPLES, 200)

    def test_sweep_api_reports_clean(self):
        report = differential_sweep(30, seed=SWEEP_SEED)
        assert report.clean
        assert report.circuits_run == 30
        assert report.backend_names == ("statevector", "sparse",
                                        "batched", "density_matrix")
        assert "0 divergence(s)" in report.summary()

    def test_sweep_is_deterministic(self):
        first = differential_sweep(12, seed=77, shrink=False)
        second = differential_sweep(12, seed=77, shrink=False)
        assert first.clean and second.clean
        assert first.summary() == second.summary()


class TestGenerators:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_same_seed_same_circuit(self, family):
        a = generate(family, 1234)
        b = generate(family, 1234)
        assert dump_circuit(a) == dump_circuit(b)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_distinct_seeds_distinct_streams(self, family):
        dumps = {dump_circuit(generate(family, seed))
                 for seed in range(20)}
        assert len(dumps) > 15

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_respects_size_bounds(self, family):
        for seed in range(25):
            circuit = generate(family, seed, max_qubits=5, max_gates=12)
            assert 1 <= circuit.num_qubits <= 8
            assert 1 <= len(circuit) <= 12 + 8  # gadget fragments may
            # overshoot by less than one fragment; never unbounded
            assert not circuit.has_measurements

    def test_unknown_family_raises(self):
        with pytest.raises(VerificationError, match="unknown circuit"):
            generate("stabilizer", 0)

    def test_circuit_seed_for_is_injective_over_sweep(self):
        seeds = {circuit_seed_for(SWEEP_SEED, i) for i in range(5000)}
        assert len(seeds) == 5000


class TestReproducerRoundTrip:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_dump_parse_round_trip_is_exact(self, family):
        for seed in range(10):
            circuit = generate(family, seed)
            rebuilt = parse_dump(dump_circuit(circuit))
            assert dump_circuit(rebuilt) == dump_circuit(circuit)

    def test_round_trip_preserves_the_unitary(self):
        circuit = generate("clifford_t", 42, max_qubits=4, max_gates=20)
        rebuilt = parse_dump(dump_circuit(circuit))
        assert operators_equal_up_to_phase(
            circuit_unitary(circuit), circuit_unitary(rebuilt),
        )

    def test_reseed_command_names_the_exact_call(self):
        command = reseed_command("clifford", 99, 6, 40)
        assert "generate('clifford', 99" in command
        assert "max_qubits=6" in command
        assert "check_circuit" in command


#: Phase-convention reproducers, pinned as parse_dump text so a future
#: gate-matrix or dump-grammar change that alters conventions fails
#: loudly.  Each dump isolates one historically convention-sensitive
#: gate (Y sign, S/S_DG direction, controlled-S direction, global
#: phase handling, RZ symmetrisation) behind an H so phases matter.
PINNED_PHASE_CIRCUITS = {
    "y-sign": "circuit y\nqubits 1\nclbits 0\ngate H 0\ngate Y 0",
    "s-direction": "circuit s\nqubits 1\nclbits 0\ngate H 0\ngate S 0",
    "sdg-direction":
        "circuit sdg\nqubits 1\nclbits 0\ngate H 0\ngate S_DG 0",
    "cs-direction": ("circuit cs\nqubits 2\nclbits 0\n"
                     "gate H 0\ngate H 1\ngate CS 0 1"),
    "csdg-direction": ("circuit csdg\nqubits 2\nclbits 0\n"
                       "gate H 0\ngate H 1\ngate CS_DG 0 1"),
    "cy-sign": ("circuit cy\nqubits 2\nclbits 0\n"
                "gate H 0\ngate CY 0 1"),
    "global-phase": ("circuit gphase\nqubits 1\nclbits 0\n"
                     "gate H 0\ngate GPHASE(0.5) 0\ngate S 0"),
    "rz-convention": ("circuit rz\nqubits 1\nclbits 0\n"
                      "gate H 0\ngate RZ(0.39269908169872414) 0"),
    "toffoli": ("circuit toffoli\nqubits 3\nclbits 0\n"
                "gate H 0\ngate H 1\ngate TOFFOLI 0 1 2\ngate T_DG 2"),
}


class TestPinnedPhaseConventions:
    @pytest.mark.parametrize("label", sorted(PINNED_PHASE_CIRCUITS))
    def test_backends_agree_on_convention_sensitive_gates(
            self, label, fuzz_reporter):
        circuit = parse_dump(PINNED_PHASE_CIRCUITS[label])
        fuzz_reporter.watch(circuit, note=f"pinned circuit {label!r}")
        divergence = check_circuit(circuit)
        assert divergence is None, str(divergence)


class TestEngineValidationMode:
    """The oracle hook of repro.analysis.engine (ISSUE tentpole c)."""

    @pytest.fixture(scope="class")
    def tiny_gadget(self, trivial):
        from repro.analysis import n_gadget_evaluator
        from repro.ft import build_n_gadget, sparse_coset_state

        gadget = build_n_gadget(trivial)
        initial = gadget.initial_state(
            {"quantum": sparse_coset_state(trivial, 0)}
        )
        evaluator = n_gadget_evaluator(gadget, trivial, 0)
        return gadget, initial, evaluator

    def test_monte_carlo_accepts_a_passing_invariant(self, tiny_gadget):
        from repro.analysis.engine import run_monte_carlo
        from repro.noise import NoiseModel
        from repro.verify import norm_invariant

        gadget, initial, evaluator = tiny_gadget
        noise = NoiseModel.uniform(0.2)
        plain = run_monte_carlo(gadget, initial, evaluator, noise,
                                trials=300, seed=11)
        checked = run_monte_carlo(gadget, initial, evaluator, noise,
                                  trials=300, seed=11,
                                  invariant=norm_invariant())
        # validation mode must not perturb the statistics
        assert checked.failures == plain.failures
        assert checked.trials == plain.trials

    def test_violated_invariant_propagates(self, tiny_gadget):
        from repro.analysis.engine import run_monte_carlo
        from repro.noise import NoiseModel

        gadget, initial, evaluator = tiny_gadget
        noise = NoiseModel.uniform(0.2)

        def bomb(state):
            raise VerificationError("deliberate invariant violation")

        with pytest.raises(VerificationError, match="deliberate"):
            run_monte_carlo(gadget, initial, evaluator, noise,
                            trials=300, seed=11, invariant=bomb)

    def test_exhaustive_runs_under_norm_invariant(self, tiny_gadget):
        from repro.analysis.engine import run_exhaustive
        from repro.verify import norm_invariant

        gadget, initial, evaluator = tiny_gadget
        survey = run_exhaustive(gadget, initial, evaluator,
                                invariant=norm_invariant())
        assert survey.checked > 0

    def test_norm_invariant_flags_denormalised_state(self):
        from repro.simulators.sparse import SparseState
        from repro.verify import norm_invariant

        state = SparseState.from_basis_state([0, 0])
        norm_invariant()(state)  # healthy state passes
        state._amplitudes = state._amplitudes * 0.5  # emulate drift
        with pytest.raises(VerificationError, match="norm invariant"):
            norm_invariant()(state)

    def test_codespace_invariant_on_steane_block(self, steane):
        from repro.circuits.pauli import PauliString
        from repro.ft import sparse_logical_state
        from repro.verify import codespace_invariant

        check = codespace_invariant(steane, range(steane.n))
        state = sparse_logical_state(steane, {(0,): 1.0})
        check(state)  # codeword passes
        state.apply_pauli(PauliString.single(steane.n, 0, "X"))
        with pytest.raises(VerificationError, match="codespace"):
            check(state)
