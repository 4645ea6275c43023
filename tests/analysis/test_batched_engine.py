"""Engine edge cases of the batched path, pinned by counters.

Satellites to the batched-equivalence suite: the weird shapes — zero
trials, a final partial batch, a batch wider than the whole workload,
an unbatchable simulator — must not merely *work*, they must leave the
exact :class:`EngineStats` audit trail that tells an operator which
path ran and how often it degraded.  The path-keyed
:class:`FaultPatternCache` tests certify the cache never launders a
verdict across evaluation paths, including under LRU pressure.  The
evaluator-contract tests pin what the batched path asks of an
evaluator: a lane judge (``evaluator.lanes``) that survives
``functools.wraps``, per-lane extraction for a plain callable, and an
invariant that still sees every lane.
"""

import functools

import pytest

from repro.analysis import (
    classical_block_value_evaluator,
    n_gadget_evaluator,
    recovered_overlap_evaluator,
)
from repro.analysis.engine import (
    BATCHED_PATH,
    SERIAL_PATH,
    FaultPatternCache,
    evaluate_fault_pattern,
    run_monte_carlo,
)
from repro.exceptions import AnalysisError, SimulationError
from repro.ft import (
    build_n_gadget,
    build_recovery_gadget,
    recovery_ancilla_state,
    sparse_coset_state,
    sparse_logical_state,
)
from repro.noise import FaultSpace, NoiseModel
from repro.simulators.batched import evaluate_fault_patterns_batched


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


_NOISE = NoiseModel.uniform(0.05)


def _mc(tiny, **kwargs):
    gadget, initial, evaluator = tiny
    return run_monte_carlo(gadget, initial, evaluator, _NOISE,
                           seed=77, **kwargs)


class TestEdgeCases:
    def test_zero_trials_runs_no_batches(self, tiny):
        result = _mc(tiny, trials=0, batch_size=8)
        stats = result.engine_stats
        assert result.trials == 0 and result.failures == 0
        assert stats.batched_batches == 0
        assert stats.batched_evaluations == 0
        assert stats.batched_fallbacks == 0

    def test_final_partial_batch_is_counted(self, tiny):
        # 100 trials in one chunk; the distinct patterns (seeded, so
        # stable) split into full stacks plus one partial final stack.
        serial = _mc(tiny, trials=100, chunk_size=100)
        distinct = serial.engine_stats.evaluations
        assert distinct > 4, "need several distinct patterns"
        assert distinct % 4 != 0, "final batch must be partial"
        batched = _mc(tiny, trials=100, chunk_size=100, batch_size=4)
        stats = batched.engine_stats
        assert batched == serial
        assert stats.batched_evaluations == distinct
        assert stats.batched_batches == -(-distinct // 4)
        assert stats.batched_fallbacks == 0

    def test_batch_larger_than_workload_runs_one_stack(self, tiny):
        serial = _mc(tiny, trials=40, chunk_size=40)
        distinct = serial.engine_stats.evaluations
        batched = _mc(tiny, trials=40, chunk_size=40, batch_size=4096)
        stats = batched.engine_stats
        assert batched == serial
        assert stats.batched_batches == 1
        assert stats.batched_evaluations == distinct

    def test_batch_size_one_never_touches_batched_path(self, tiny):
        result = _mc(tiny, trials=60, batch_size=1)
        stats = result.engine_stats
        assert stats.batched_batches == 0
        assert stats.batched_evaluations == 0
        assert stats.evaluations > 0

    def test_unbatchable_stack_falls_back_to_serial(self, tiny,
                                                    monkeypatch):
        """A stack the simulator refuses (here: forced SimulationError)
        degrades per-pattern to the serial path — same result, with
        the degradation visible in the counters."""
        serial = _mc(tiny, trials=80, chunk_size=80)
        distinct = serial.engine_stats.evaluations

        def explode(*args, **kwargs):
            raise SimulationError("stack too wide")

        # workers=1: a monkeypatch does not cross a forked pool.
        monkeypatch.setattr(
            "repro.analysis.engine.evaluate_fault_patterns_batched",
            explode)
        batched = _mc(tiny, trials=80, chunk_size=80, batch_size=16,
                      workers=1)
        stats = batched.engine_stats
        assert batched == serial
        assert stats.batched_fallbacks == distinct
        assert stats.batched_evaluations == 0

    def test_invalid_batch_size_rejected(self, tiny):
        for bad in (0, -3, True, 2.5):
            with pytest.raises(AnalysisError):
                _mc(tiny, trials=10, batch_size=bad)


class TestPathKeyedCache:
    def test_poisoned_serial_cache_cannot_feed_batched_run(self, tiny):
        """Wrong serial-path verdicts must be invisible to a batched
        run: the cache key includes the evaluation path."""
        clean = _mc(tiny, trials=120, chunk_size=60)
        poisoned = FaultPatternCache()
        honest = FaultPatternCache()
        _mc(tiny, trials=120, chunk_size=60, cache=honest)
        for pattern, verdict in honest.items():
            poisoned.store(pattern, not verdict, path=SERIAL_PATH)
        batched = _mc(tiny, trials=120, chunk_size=60, batch_size=16,
                      cache=poisoned)
        assert batched == clean

    def test_same_pattern_occupies_two_entries(self, tiny):
        cache = FaultPatternCache()
        _mc(tiny, trials=50, chunk_size=50, cache=cache)
        serial_entries = len(cache)
        _mc(tiny, trials=50, chunk_size=50, batch_size=8, cache=cache)
        assert len(cache) == 2 * serial_entries
        paths = {path for (path, _), _ in cache.items_with_paths()}
        assert paths == {SERIAL_PATH, BATCHED_PATH}
        # items() stays path-agnostic: every pattern appears twice.
        patterns = [pattern for pattern, _ in cache.items()]
        assert len(patterns) == 2 * len(set(patterns))

    def test_default_accessors_address_serial_path(self, tiny):
        cache = FaultPatternCache()
        pattern = ()
        cache.store(pattern, True, path=BATCHED_PATH)
        assert pattern not in cache
        assert not cache.contains(pattern)
        assert cache.get(pattern) is None
        assert cache.contains(pattern, path=BATCHED_PATH)
        assert cache.get(pattern, path=BATCHED_PATH) is True

    def test_lru_eviction_under_batching(self, tiny):
        """A tiny cache thrashes but never corrupts: evictions are
        counted and the batched result still equals serial."""
        serial = _mc(tiny, trials=150, chunk_size=50)
        cache = FaultPatternCache(max_entries=5)
        batched = _mc(tiny, trials=150, chunk_size=50, batch_size=16,
                      cache=cache)
        assert batched == serial
        assert cache.evictions > 0
        assert len(cache) <= 5
        stats = batched.engine_stats
        assert stats.cache_evictions == cache.evictions

    def test_eviction_order_is_lru_per_key(self):
        cache = FaultPatternCache(max_entries=2)
        cache.store((), True, path=SERIAL_PATH)
        cache.store((), False, path=BATCHED_PATH)
        # Touch the serial entry so the batched one is now LRU.
        assert cache.get((), path=SERIAL_PATH) is True
        other = ((None, 0),)
        cache.store(other, True, path=SERIAL_PATH)
        assert cache.evictions == 1
        assert cache.contains((), path=SERIAL_PATH)
        assert not cache.contains((), path=BATCHED_PATH)


@pytest.fixture(scope="module")
def factory_cases(trivial, tiny):
    """(name, gadget, initial, evaluator) for each evaluator factory."""
    gadget, initial, evaluator = tiny
    recovery = build_recovery_gadget(trivial, "X")
    data = sparse_logical_state(trivial, {(0,): 0.6, (1,): 0.8})
    recovery_initial = recovery.initial_state({
        "data": data,
        "ancilla": recovery_ancilla_state(trivial, "X"),
    })
    return [
        ("recovered_overlap", recovery, recovery_initial,
         recovered_overlap_evaluator(recovery, trivial, ["data"], data)),
        ("n_gadget", gadget, initial, evaluator),
        ("classical_block_value", gadget, initial,
         classical_block_value_evaluator(gadget, "classical", 0, 0)),
    ]


def _singles(gadget):
    space = FaultSpace.build(gadget.circuit, gadget.fault_locations())
    return [((pauli, location.after_op),)
            for location, pauli in space.singles()]


def _serial(gadget, initial, evaluator, patterns):
    return [evaluate_fault_pattern(gadget, initial, evaluator, pattern)
            for pattern in patterns]


class TestEvaluatorContract:
    def test_wrapped_evaluator_keeps_its_judge(self, factory_cases):
        for name, gadget, initial, evaluator in factory_cases:
            shim = functools.wraps(evaluator)(
                lambda state, evaluator=evaluator: evaluator(state))
            assert shim.lanes is evaluator.lanes, name
            patterns = _singles(gadget)
            verdicts = evaluate_fault_patterns_batched(
                gadget, initial, shim, patterns)
            assert verdicts == _serial(gadget, initial, evaluator,
                                       patterns), name
            assert not all(verdicts), f"{name}: no rejected fault"

    def test_plain_callable_is_judged_lane_by_lane(self,
                                                   factory_cases):
        for name, gadget, initial, evaluator in factory_cases:
            calls = []

            def plain(state, evaluator=evaluator):
                calls.append(state.num_qubits)
                return evaluator(state)

            patterns = _singles(gadget)
            verdicts = evaluate_fault_patterns_batched(
                gadget, initial, plain, patterns)
            assert verdicts == evaluate_fault_patterns_batched(
                gadget, initial, evaluator, patterns), name
            assert calls == [gadget.num_qubits] * len(patterns), name

    def test_invariant_sees_every_lane(self, factory_cases):
        for name, gadget, initial, evaluator in factory_cases:
            seen = []
            patterns = _singles(gadget)
            verdicts = evaluate_fault_patterns_batched(
                gadget, initial, evaluator, patterns,
                invariant=lambda state: seen.append(state.num_qubits))
            assert seen == [gadget.num_qubits] * len(patterns), name
            assert verdicts == _serial(gadget, initial, evaluator,
                                       patterns), name
