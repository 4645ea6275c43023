"""Engine edge cases of the lane stack, pinned by counters.

Satellites to the batched-equivalence suite: the weird shapes — zero
trials, a final partial stack, a stack wider than the whole workload,
one-lane stacks, a stack the simulator refuses — must not merely
*work*, they must leave the exact :class:`EngineStats` audit trail
that tells an operator how many stacked simulations ran.  The
:class:`FaultPatternCache` tests certify that the cache is keyed by the
canonical pattern alone, including under LRU pressure.  The
evaluator-contract tests pin what the stack asks of an evaluator: a
lane judge (``evaluator.lanes``) that survives ``functools.wraps``,
per-lane extraction for a plain callable, and an invariant that still
sees every lane.
"""

import functools
import sys

import pytest

from repro.analysis import (
    classical_block_value_evaluator,
    n_gadget_evaluator,
    recovered_overlap_evaluator,
)
from repro.analysis import engine
from repro.analysis.engine import (
    FaultPatternCache,
    evaluate_fault_pattern,
    run_exhaustive,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.exceptions import (
    AnalysisError,
    RuntimeIntegrityError,
    SimulationError,
)
from repro.ft import gadget as gadget_module
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
        assert stats.evaluations == 0

    def test_final_partial_batch_is_counted(self, tiny):
        # 100 trials in one chunk; the distinct patterns (seeded, so
        # stable) split into full stacks plus one partial final stack.
        one_lane = _mc(tiny, trials=100, chunk_size=100)
        distinct = one_lane.engine_stats.evaluations
        assert distinct > 4, "need several distinct patterns"
        assert distinct % 4 != 0, "final batch must be partial"
        batched = _mc(tiny, trials=100, chunk_size=100, batch_size=4)
        stats = batched.engine_stats
        assert batched == one_lane
        assert stats.evaluations == distinct
        assert stats.batched_batches == -(-distinct // 4)

    def test_batch_larger_than_workload_runs_one_stack(self, tiny):
        one_lane = _mc(tiny, trials=40, chunk_size=40)
        distinct = one_lane.engine_stats.evaluations
        batched = _mc(tiny, trials=40, chunk_size=40, batch_size=4096)
        stats = batched.engine_stats
        assert batched == one_lane
        assert stats.batched_batches == 1
        assert stats.evaluations == distinct

    def test_batch_size_one_runs_one_lane_stacks(self, tiny,
                                                 monkeypatch):
        widths = []

        def spy(gadget, initial, evaluator, patterns, **kwargs):
            widths.append(len(patterns))
            return evaluate_fault_patterns_batched(
                gadget, initial, evaluator, patterns, **kwargs)

        # workers=1: a monkeypatch does not cross a forked pool.
        monkeypatch.setattr(engine, "evaluate_fault_patterns_batched",
                            spy)
        result = _mc(tiny, trials=60, batch_size=1, workers=1)
        stats = result.engine_stats
        assert stats.evaluations > 0
        assert widths == [1] * stats.evaluations
        assert stats.batched_batches == stats.evaluations

    def test_refused_stack_is_typed_error_in_a_serial_run(
            self, tiny, monkeypatch):
        """A stack the simulator refuses (here: forced SimulationError)
        is a RuntimeIntegrityError chained to it, never a verdict."""
        def explode(*args, **kwargs):
            raise SimulationError("stack too wide")

        monkeypatch.setattr(engine, "evaluate_fault_patterns_batched",
                            explode)
        for batch_size in (1, 16):
            with pytest.raises(RuntimeIntegrityError,
                               match="sparse simulation") as caught:
                _mc(tiny, trials=80, chunk_size=80,
                    batch_size=batch_size, workers=1)
            assert isinstance(caught.value.__cause__, SimulationError)

    def test_invalid_batch_size_rejected(self, tiny):
        for bad in (0, -3, True, 2.5):
            with pytest.raises(AnalysisError):
                _mc(tiny, trials=10, batch_size=bad)


class TestOneEvaluationPath:
    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_no_entry_point_runs_the_serial_simulator(
            self, tiny, monkeypatch, batch_size):
        """Every engine entry point judges through the lane stack: with
        the serial fault simulator patched to raise wherever it is
        bound, all three still finish, at any stack width."""
        original = gadget_module.apply_circuit_with_faults

        def forbidden(*args, **kwargs):
            raise AssertionError("serial fault simulation in the engine")

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro") and \
                    vars(module).get("apply_circuit_with_faults") \
                    is original:
                monkeypatch.setattr(module, "apply_circuit_with_faults",
                                    forbidden)
        gadget, initial, evaluator = tiny
        common = dict(workers=1, batch_size=batch_size)
        mc = _mc(tiny, trials=200, **common)
        pairs = run_malignant_pairs(gadget, initial, evaluator,
                                    samples=100, seed=5, **common)
        survey = run_exhaustive(gadget, initial, evaluator, **common)
        assert mc.engine_stats.evaluations > 0
        assert pairs.engine_stats.evaluations > 0
        assert survey.stats.evaluations > 0


class TestPatternKeyedCache:
    def test_one_entry_per_pattern_across_batch_sizes(self, tiny):
        cache = FaultPatternCache()
        one_lane = _mc(tiny, trials=50, chunk_size=50, cache=cache)
        entries = list(cache.items())
        batched = _mc(tiny, trials=50, chunk_size=50, batch_size=8,
                      cache=cache)
        assert batched == one_lane
        assert batched.engine_stats.evaluations == 0
        assert sorted(cache.items(), key=repr) == sorted(entries,
                                                         key=repr)

    def test_accessors_are_keyed_by_pattern(self):
        cache = FaultPatternCache()
        assert not cache.contains(())
        assert cache.get(()) is None
        cache.store((), False)
        assert cache.contains(())
        assert cache.get(()) is False
        assert list(cache.items()) == [((), False)]

    def test_lru_eviction_under_batching(self, tiny):
        """A tiny cache thrashes but never corrupts: evictions are
        counted and the batched result still equals one-lane stacks."""
        one_lane = _mc(tiny, trials=150, chunk_size=50)
        cache = FaultPatternCache(max_entries=5)
        batched = _mc(tiny, trials=150, chunk_size=50, batch_size=16,
                      cache=cache)
        assert batched == one_lane
        assert cache.evictions > 0
        assert len(cache) <= 5
        stats = batched.engine_stats
        assert stats.cache_evictions == cache.evictions

    def test_eviction_order_is_lru_per_pattern(self):
        cache = FaultPatternCache(max_entries=2)
        first, second, third = ((None, 0),), ((None, 1),), ((None, 2),)
        cache.store(first, True)
        cache.store(second, False)
        # Touch the first entry so the second is now LRU.
        assert cache.get(first) is True
        cache.store(third, True)
        assert cache.evictions == 1
        assert cache.contains(first) and cache.contains(third)
        assert not cache.contains(second)


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
