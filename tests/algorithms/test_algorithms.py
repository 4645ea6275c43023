"""Tests for the Sec. 2 ensemble algorithm experiments."""


import numpy as np
import pytest

from repro.algorithms import (
    ensemble_rng_attempt,
    fully_quantum_output_fidelity,
    fully_quantum_teleportation_circuit,
    grover_circuit,
    hit_distribution,
    multiplicative_order,
    naive_ensemble_signal,
    order_finding_circuit,
    phase_estimate_distribution,
    rng_state_circuit,
    run_ensemble_grover,
    run_ensemble_order_finding,
    run_standard_on_single_computer,
    single_computer_rng,
    standard_teleportation_circuit,
)
from repro.algorithms.grover import diffusion_gate, optimal_iterations, \
    oracle_gate
from repro.algorithms.order_finding import (
    candidate_order_from_sample,
    modular_multiplication_gate,
    verify_order,
)
from repro.algorithms.rng import signal_variance_over_runs
from repro.ensemble import EnsembleMachine
from repro.exceptions import EnsembleViolationError, ReproError


class TestRng:
    def test_single_computer_statistics(self):
        bits = single_computer_rng(0.3, 1200, seed=0)
        assert abs(np.mean(bits) - 0.7) < 0.05

    def test_ensemble_returns_expectation_not_randomness(self):
        machine = EnsembleMachine(1, ensemble_size=10**6, seed=0)
        outcome = ensemble_rng_attempt(0.3, machine)
        assert abs(outcome.expected_signal + 0.4) < 1e-12
        assert abs(outcome.recovered_p - 0.3) < 0.01

    def test_signal_deterministic_up_to_shot_noise(self):
        """The quantitative impossibility: run-to-run variance is the
        shot-noise floor 1/N, not the Bernoulli variance 4p(1-p)."""
        variance = signal_variance_over_runs(
            0.5, machine_seed_base=10, ensemble_size=10**6, runs=40
        )
        bernoulli = 4 * 0.5 * 0.5
        assert variance < bernoulli / 1000
        assert variance < 1e-4

    def test_rng_measurement_rejected_on_ensemble(self):
        from repro.algorithms.rng import rng_measurement_circuit

        machine = EnsembleMachine(1)
        with pytest.raises(EnsembleViolationError):
            machine.run(rng_measurement_circuit(0.5))

    def test_p_validated(self):
        with pytest.raises(ReproError):
            rng_state_circuit(1.3)


class TestTeleportation:
    def test_standard_works_on_single_computer(self):
        for seed in range(6):
            fidelity, _ = run_standard_on_single_computer(0.6, 0.8,
                                                          seed=seed)
            assert fidelity > 1 - 1e-9

    def test_standard_rejected_on_ensemble(self):
        machine = EnsembleMachine(3)
        with pytest.raises(EnsembleViolationError):
            machine.run(standard_teleportation_circuit())

    def test_naive_collapse_signal_useless(self):
        machine = EnsembleMachine(3, ensemble_size=10**6, seed=1)
        run = naive_ensemble_signal(0.6, 0.8, machine,
                                    sample_computers=256)
        # Input <Z> = 0.36 - 0.64 = -0.28; the output qubit shows ~0.
        assert abs(run.observed(2)) < 0.1

    @pytest.mark.parametrize("dephase", [False, True])
    def test_fully_quantum_fidelity(self, dephase):
        fidelity = fully_quantum_output_fidelity(
            0.6, 0.8j, dephase_controls=dephase
        )
        assert fidelity > 1 - 1e-9

    def test_fully_quantum_is_ensemble_safe(self):
        machine = EnsembleMachine(3, noiseless_readout=True)
        machine.run(fully_quantum_teleportation_circuit())


class TestGrover:
    def test_oracle_and_diffusion_unitary(self):
        oracle = oracle_gate(3, [5])
        assert oracle.matrix[5, 5] == -1
        diffusion = diffusion_gate(3)
        assert np.allclose(diffusion.matrix @ diffusion.matrix.conj().T,
                           np.eye(8))

    def test_single_solution_amplified(self):
        probabilities = hit_distribution(4, [11])
        assert probabilities[11] > 0.9

    def test_multiple_solutions_split_probability(self):
        marked = [3, 12, 25]
        probabilities = hit_distribution(5, marked)
        for index in marked:
            assert probabilities[index] > 0.2

    def test_optimal_iterations(self):
        assert optimal_iterations(4, 1) == 3
        with pytest.raises(ReproError):
            optimal_iterations(4, 0)

    def test_grover_circuit_is_ensemble_safe(self):
        assert grover_circuit(3, [4]).is_ensemble_safe()

    def test_ensemble_experiment(self):
        report = run_ensemble_grover(5, [7, 19, 28],
                                     num_computers=4096, seed=13)
        assert not report.naive_succeeded
        assert report.sorted_agreement > 0.95
        assert report.sorted_succeeded

    def test_single_solution_naive_works(self):
        """With ONE solution the naive readout is fine — the failure
        is specifically a multiple-solutions phenomenon."""
        report = run_ensemble_grover(4, [9], num_computers=4096,
                                     seed=3)
        assert report.naive_decoded == 9
        assert report.naive_succeeded


class TestOrderFinding:
    def test_multiplicative_order(self):
        assert multiplicative_order(7, 15) == 4
        assert multiplicative_order(2, 15) == 4
        assert multiplicative_order(4, 15) == 2
        with pytest.raises(ReproError):
            multiplicative_order(5, 15)

    def test_modular_gate_is_permutation(self):
        gate = modular_multiplication_gate(7, 15, 4)
        matrix = gate.matrix
        assert np.allclose(matrix @ matrix.conj().T, np.eye(16))
        assert matrix[7 % 15, 1] == 1.0   # 7*1 mod 15
        assert matrix[4, 7] == 1.0        # 7*7 = 49 = 4 mod 15
        assert matrix[15, 15] == 1.0      # out-of-range fixed point

    def test_distribution_peaks_at_multiples(self):
        """QPE peaks at y ~ 2^t j/r for j = 0..r-1 (r=4, t=5)."""
        distribution = phase_estimate_distribution(7, 15, 5)
        peaks = {0, 8, 16, 24}
        for peak in peaks:
            assert distribution[peak] > 0.15
        assert sum(distribution[sorted(peaks)]) > 0.9

    def test_candidate_extraction(self):
        assert candidate_order_from_sample(8, 5, 15) == 4
        assert candidate_order_from_sample(24, 5, 15) == 4
        assert candidate_order_from_sample(16, 5, 15) == 2  # j/r = 1/2
        assert candidate_order_from_sample(0, 5, 15) is None

    def test_verification(self):
        assert verify_order(7, 4, 15)
        assert not verify_order(7, 3, 15)
        assert not verify_order(7, None, 15)

    def test_circuit_is_ensemble_safe(self):
        assert order_finding_circuit(7, 15, 4).is_ensemble_safe()

    def test_ensemble_experiment(self):
        report = run_ensemble_order_finding(7, 15, counting_bits=6,
                                            num_computers=4096, seed=17)
        assert report.true_order == 4
        assert 0.3 < report.good_fraction < 0.8
        assert not report.naive_succeeded
        assert report.randomized_succeeded
        assert report.recovered_order == 4

    def test_other_base(self):
        report = run_ensemble_order_finding(4, 15, counting_bits=6,
                                            num_computers=4096, seed=23)
        assert report.true_order == 2
        assert report.randomized_succeeded
