"""Certification suite for the parallel fault-injection engine.

A sampling engine that is fast but silently wrong would corrupt every
downstream figure, so the engine's contracts are tested adversarially:

* serial-vs-parallel equivalence — a seeded run is bit-identical for
  ``workers`` in {1, 2, 4};
* cache-vs-fresh equivalence — every memoised verdict matches an
  independent fresh simulation of the same fault pattern;
* seed-stability regression — fixed seeds pin exact counts, distinct
  seeds actually produce distinct streams.
"""

import pytest

from repro.analysis import (
    FaultPatternCache,
    canonical_pattern,
    evaluate_fault_pattern,
    n_gadget_evaluator,
    run_exhaustive,
    run_malignant_pairs,
    run_monte_carlo,
    sampled_threshold_report,
    sweep_p,
)
from repro.exceptions import AnalysisError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel, burst_locations


@pytest.fixture(scope="module")
def tiny(trivial):
    """Trivial-code N gadget: 2 qubits, 2 fault locations — fast
    enough to hammer with thousands of trials."""
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


@pytest.fixture(scope="module")
def steane_ngate(steane):
    gadget = build_n_gadget(steane, variant="direct")
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(steane, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, steane, 0)
    return gadget, initial, evaluator


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_monte_carlo_bit_identical_across_workers(self, tiny,
                                                      workers):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.2)
        baseline = run_monte_carlo(gadget, initial, evaluator,
                                   noise, trials=2000, seed=42,
                                   workers=1)
        result = run_monte_carlo(gadget, initial, evaluator, noise,
                                 trials=2000, seed=42,
                                 workers=workers)
        assert result == baseline
        assert result.failures == baseline.failures
        assert result.fault_count_histogram == \
            baseline.fault_count_histogram
        assert result.failures_by_fault_count == \
            baseline.failures_by_fault_count

    def test_steane_monte_carlo_bit_identical_across_workers(
            self, steane_ngate):
        gadget, initial, evaluator = steane_ngate
        noise = NoiseModel.uniform(1e-2)
        serial = run_monte_carlo(gadget, initial, evaluator, noise,
                                 trials=120, seed=7, workers=1)
        parallel = run_monte_carlo(gadget, initial, evaluator,
                                   noise, trials=120, seed=7,
                                   workers=4)
        assert parallel == serial

    def test_deduplication_judges_each_pattern_once(self, tiny):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.3)
        cache = FaultPatternCache()
        result = run_monte_carlo(gadget, initial, evaluator, noise,
                                 trials=1500, seed=8, workers=1,
                                 cache=cache)
        stats = result.engine_stats
        assert stats.cache_hits > 0
        assert stats.evaluations == stats.distinct_patterns == len(cache)
        assert stats.requests == stats.evaluations + stats.cache_hits
        # A warm cache answers every request and changes nothing.
        replay = run_monte_carlo(gadget, initial, evaluator, noise,
                                 trials=1500, seed=8, workers=1,
                                 cache=cache)
        assert replay == result
        assert replay.engine_stats.evaluations == 0

    @pytest.mark.parametrize("workers", [2, 4])
    def test_malignant_pairs_bit_identical_across_workers(self, tiny,
                                                          workers):
        gadget, initial, evaluator = tiny
        baseline = run_malignant_pairs(gadget, initial, evaluator,
                                       samples=600, seed=9,
                                       workers=1)
        result = run_malignant_pairs(gadget, initial, evaluator,
                                     samples=600, seed=9,
                                     workers=workers)
        assert result == baseline

    @pytest.mark.parametrize("workers", [1, 2])
    def test_exhaustive_engine_matches_serial_exactly(self, tiny,
                                                      workers):
        gadget, initial, evaluator = tiny
        # Reference: every single fault simulated directly, in
        # enumeration order, outside the engine's scheduling.
        model = NoiseModel.uniform(1.0)
        serial = [
            (location, pauli)
            for location in gadget.fault_locations()
            for pauli in model.fault_choices(location, gadget.num_qubits)
            if not evaluate_fault_pattern(gadget, initial, evaluator,
                                          [(pauli, location.after_op)])
        ]
        engine = run_exhaustive(gadget, initial, evaluator,
                                workers=workers).failures
        assert engine == serial

    def test_sweep_bit_identical_across_workers(self, tiny):
        gadget, initial, evaluator = tiny
        serial = sweep_p(gadget, initial, evaluator,
                         p_values=[0.05, 0.2], trials=800, seed=3,
                         workers=1)
        parallel = sweep_p(gadget, initial, evaluator,
                           p_values=[0.05, 0.2], trials=800, seed=3,
                           workers=4)
        assert parallel == serial


class TestCacheCorrectness:
    def test_cached_verdicts_match_fresh_simulation(self, tiny):
        """Every verdict the engine memoised must equal a fresh,
        cache-free simulation of the same canonical pattern."""
        gadget, initial, evaluator = tiny
        cache = FaultPatternCache()
        run_monte_carlo(gadget, initial, evaluator,
                        NoiseModel.uniform(0.35), trials=800,
                        seed=13, workers=1, cache=cache)
        assert len(cache) > 5
        for pattern, verdict in cache.items():
            assert evaluate_fault_pattern(gadget, initial, evaluator,
                                          pattern) == verdict

    def test_cached_verdicts_for_random_patterns(self, tiny, rng):
        """Cache round-trip on patterns drawn directly from the noise
        model (not through the engine's own sampler)."""
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.5)
        locations = gadget.fault_locations()
        cache = FaultPatternCache()
        for _ in range(50):
            sampled = noise.sample_faults(gadget.circuit, rng,
                                          locations)
            if not sampled:
                continue
            faults = [(fault.pauli, fault.after_op)
                      for fault in sampled]
            pattern = canonical_pattern(faults)
            fresh = evaluate_fault_pattern(gadget, initial, evaluator,
                                           faults)
            if cache.contains(pattern):
                assert cache.get(pattern) == fresh
            else:
                cache.store(pattern, fresh)
            # The canonical form must evaluate identically to the
            # as-sampled order.
            assert evaluate_fault_pattern(gadget, initial, evaluator,
                                          pattern) == fresh

    def test_shared_cache_reaches_full_reuse(self, tiny):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        cache = FaultPatternCache()
        first = run_monte_carlo(gadget, initial, evaluator, noise,
                                trials=600, seed=21, workers=1,
                                cache=cache)
        second = run_monte_carlo(gadget, initial, evaluator, noise,
                                 trials=600, seed=21, workers=1,
                                 cache=cache)
        assert second == first
        assert second.engine_stats.evaluations == 0
        assert second.engine_stats.cache_hit_rate == 1.0

    def test_canonical_pattern_is_order_independent(self, tiny):
        gadget, _, _ = tiny
        num_qubits = gadget.num_qubits
        from repro.circuits import PauliString

        faults = [
            (PauliString.single(num_qubits, 0, "X"), 0),
            (PauliString.single(num_qubits, 1, "Z"), -1),
            (PauliString.single(num_qubits, 1, "Y"), 0),
        ]
        assert canonical_pattern(faults) == \
            canonical_pattern(list(reversed(faults)))


class TestSeedStability:
    def test_engine_seed_regression(self, tiny):
        """Pinned counts for a fixed (seed, trials, chunk_size): any
        drift in the chunked SeedSequence scheme breaks this."""
        gadget, initial, evaluator = tiny
        result = run_monte_carlo(gadget, initial, evaluator,
                                 NoiseModel.uniform(0.25),
                                 trials=1000, seed=2024, workers=1)
        assert result.failures == 328
        assert result.failures_by_fault_count == {1: 272, 2: 56}
        assert result.fault_count_histogram == {0: 548, 1: 374, 2: 78}

    def test_same_seed_reproduces_exactly(self, tiny):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        runs = [run_monte_carlo(gadget, initial, evaluator, noise,
                                trials=1000, seed=1, workers=2)
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_distinct_seeds_differ(self, tiny):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        a = run_monte_carlo(gadget, initial, evaluator, noise,
                            trials=1000, seed=1, workers=1)
        b = run_monte_carlo(gadget, initial, evaluator, noise,
                            trials=1000, seed=2, workers=1)
        assert a != b

    def test_sweep_seed_determinism(self, tiny):
        """Same seed → identical series; the per-point ``seed + i``
        coupling gives each point a genuinely distinct stream."""
        gadget, initial, evaluator = tiny
        for options in ({}, {"workers": 2}):
            first = sweep_p(gadget, initial, evaluator,
                            p_values=[0.2, 0.2], trials=400, seed=11,
                            **options)
            again = sweep_p(gadget, initial, evaluator,
                            p_values=[0.2, 0.2], trials=400, seed=11,
                            **options)
            assert first == again
            # Identical p at both points, so any difference comes
            # from the per-point seed offset alone.
            assert first[0] != first[1]

    def test_sweep_unseeded_runs(self, tiny):
        gadget, initial, evaluator = tiny
        results = sweep_p(gadget, initial, evaluator, p_values=[0.2],
                          trials=50, seed=None)
        assert results[0].trials == 50


class TestEngineInstrumentation:
    def test_stats_accounting_is_consistent(self, tiny):
        gadget, initial, evaluator = tiny
        result = run_monte_carlo(gadget, initial, evaluator,
                                 NoiseModel.uniform(0.3),
                                 trials=1000, seed=4, workers=2,
                                 chunk_size=128)
        stats = result.engine_stats
        nonempty = sum(count for faults, count in
                       result.fault_count_histogram.items() if faults)
        assert stats.trials == 1000
        assert stats.chunks == 8  # ceil(1000 / 128)
        assert stats.requests == nonempty
        assert stats.cache_hits + stats.evaluations == stats.requests
        assert stats.distinct_patterns == stats.evaluations
        assert 0.0 <= stats.cache_hit_rate <= 1.0
        assert 0.0 <= stats.worker_utilization <= 1.0
        assert stats.trials_per_second > 0
        assert sum(t.patterns for t in stats.chunk_timings) == \
            stats.evaluations

    def test_progress_callback_sees_both_phases(self, tiny):
        gadget, initial, evaluator = tiny
        events = []
        run_monte_carlo(gadget, initial, evaluator,
                        NoiseModel.uniform(0.3), trials=500,
                        seed=5, workers=1, chunk_size=100,
                        progress=events.append)
        phases = {event.phase for event in events}
        assert phases == {"sample", "evaluate"}
        samples = [e for e in events if e.phase == "sample"]
        assert samples[-1].done == 500
        assert all(e.total == 500 for e in samples)
        done = [e.done for e in samples]
        assert done == sorted(done)

    def test_default_call_attaches_stats(self, tiny):
        """The engine is the only sampler, so a call without engine
        options is instrumented like any other."""
        gadget, initial, evaluator = tiny
        result = run_monte_carlo(gadget, initial, evaluator,
                                 NoiseModel.uniform(0.2),
                                 trials=50, seed=1)
        assert result.engine_stats is not None
        assert result.engine_stats.trials == 50
        assert result.engine_stats.workers == 1


class TestEngineValidation:
    def test_negative_trials_rejected(self, tiny):
        gadget, initial, evaluator = tiny
        with pytest.raises(AnalysisError):
            run_monte_carlo(gadget, initial, evaluator,
                            NoiseModel.uniform(0.1), trials=-1,
                            workers=1)

    def test_pair_sampling_needs_two_locations(self, tiny):
        gadget, initial, evaluator = tiny
        locations = gadget.fault_locations()[:1]
        with pytest.raises(AnalysisError):
            run_malignant_pairs(gadget, initial, evaluator,
                                samples=10, seed=0,
                                locations=locations, workers=1)


class TestSampledThresholdReport:
    def test_report_matches_direct_engine_runs(self, tiny):
        gadget, initial, evaluator = tiny
        report = sampled_threshold_report(gadget, initial, evaluator,
                                          samples=200, seed=7,
                                          workers=2)
        failures = run_exhaustive(gadget, initial, evaluator).failures
        pair = run_malignant_pairs(gadget, initial, evaluator,
                                   samples=200, seed=7, workers=1)
        assert report.single_fault_failures == len(failures)
        assert report.malignant_pairs == \
            int(round(pair.estimated_malignant_pairs))
        assert report.location_counts["total"] == \
            len(gadget.fault_locations())
        assert report.engine_stats is not None
        assert report.engine_stats.requests > 0

    def test_report_counts_burst_locations(self, tiny):
        """Extended location kinds land in the histogram instead of
        raising KeyError after both phases have run."""
        gadget, initial, evaluator = tiny
        bursts = burst_locations(gadget.circuit, weight=2,
                                 after_ops=(-1, 0))
        assert len(bursts) == 2
        report = sampled_threshold_report(gadget, initial, evaluator,
                                          samples=40, seed=1,
                                          locations=bursts)
        assert report.location_counts == {
            "input": 0, "gate": 0, "delay": 0, "burst": 2, "total": 2}
