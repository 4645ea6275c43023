"""Engine hardening: bounded cache, strict input validation, stats
edge cases, and crash-safe artifact writing.

These are the satellite guarantees around the resilient runtime: a
capped verdict cache can never change a result, malformed knobs fail
fast with specific messages (not deep inside ``multiprocessing``),
instrumentation never divides by zero, and report files are written
atomically into directories that may not exist yet.
"""

import os

import pytest

from repro.analysis import n_gadget_evaluator
from dataclasses import fields

from repro.analysis.engine import (
    ChunkTiming,
    EngineStats,
    FaultPatternCache,
    run_monte_carlo,
)
from repro.exceptions import AnalysisError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel
from repro.verify.reporting import write_artifact


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


class TestBoundedCache:
    def _patterns(self, n):
        # Distinct hashable stand-ins; the cache never inspects keys.
        return [(("p", i),) for i in range(n)]

    def test_lru_eviction_order(self):
        cache = FaultPatternCache(max_entries=2)
        a, b, c = self._patterns(3)
        cache.store(a, True)
        cache.store(b, False)
        cache.get(a)          # refresh a; b is now least recent
        cache.store(c, True)  # evicts b
        assert cache.contains(a) and cache.contains(c)
        assert not cache.contains(b)
        assert cache.evictions == 1
        assert len(cache) == 2

    def test_unbounded_cache_never_evicts(self):
        cache = FaultPatternCache(max_entries=None)
        for pattern in self._patterns(100):
            cache.store(pattern, True)
        assert len(cache) == 100
        assert cache.evictions == 0

    def test_clear_resets_counters(self):
        cache = FaultPatternCache(max_entries=1)
        a, b = self._patterns(2)
        cache.store(a, True)
        cache.store(b, True)
        assert cache.evictions == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.evictions == 0

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "big"])
    def test_invalid_max_entries_rejected(self, bad):
        with pytest.raises(AnalysisError):
            FaultPatternCache(max_entries=bad)

    def test_capped_cache_cannot_change_results(self, tiny):
        # Regression for the LRU bound: evicted verdicts are simply
        # re-simulated, so a pathologically tiny cache must produce
        # bit-identical statistics — just more simulator work.
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        kwargs = dict(trials=600, seed=13, workers=1, chunk_size=16)
        baseline = run_monte_carlo(gadget, initial, evaluator, noise,
                                   **kwargs)
        capped = run_monte_carlo(gadget, initial, evaluator, noise,
                                 cache=FaultPatternCache(max_entries=2),
                                 **kwargs)
        assert capped == baseline
        assert capped.engine_stats.cache_evictions > 0
        assert capped.engine_stats.evaluations >= \
            baseline.engine_stats.evaluations
        assert any("cache evictions" in line
                   for line in capped.engine_stats.summary_lines())


class TestInputValidation:
    @pytest.mark.parametrize("bad,match", [
        (-1, "non-negative"),
        (True, "must be an integer"),
        (2.5, "must be an integer"),
        ("100", "must be an integer"),
        (1 << 49, "ceiling"),
    ])
    def test_bad_trials_fail_fast(self, tiny, bad, match):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.1)
        with pytest.raises(AnalysisError, match=match):
            run_monte_carlo(gadget, initial, evaluator, noise,
                            trials=bad, seed=0, workers=1)

    def test_integral_float_trials_accepted(self, tiny):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.1)
        result = run_monte_carlo(gadget, initial, evaluator, noise,
                                 trials=float(50), seed=0, workers=1)
        assert result.trials == 50

    @pytest.mark.parametrize("bad", [0, -3, 1.5, True, "two"])
    def test_bad_workers_fail_fast(self, tiny, bad):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.1)
        with pytest.raises(AnalysisError, match="workers"):
            run_monte_carlo(gadget, initial, evaluator, noise,
                            trials=10, seed=0, workers=bad)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "64"])
    def test_bad_chunk_size_fails_fast(self, tiny, bad):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.1)
        with pytest.raises(AnalysisError, match="chunk_size"):
            run_monte_carlo(gadget, initial, evaluator, noise,
                            trials=10, seed=0, workers=1,
                            chunk_size=bad)


class TestEngineStatsEdges:
    def test_zero_work_rates_are_zero_not_nan(self):
        stats = EngineStats()
        assert stats.cache_hit_rate == 0.0
        assert stats.trials_per_second == 0.0
        assert stats.worker_utilization == 0.0

    def test_worker_utilization_is_capped_at_one(self):
        stats = EngineStats(workers=1, eval_seconds=1.0,
                            worker_busy_seconds=5.0)
        assert stats.worker_utilization == 1.0

    def test_summary_omits_resilience_line_when_clean(self):
        stats = EngineStats(trials=10, requests=10, evaluations=3)
        assert not any("resilience" in line
                       for line in stats.summary_lines())

    def test_summary_includes_resilience_line_on_incident(self):
        stats = EngineStats(retries=2, hung_chunks=1,
                            invariant_retries=4)
        joined = "\n".join(stats.summary_lines())
        assert "resilience: 2 retries" in joined
        assert "4 invariant retries" in joined

    def test_absorb_folds_resilience_counters(self):
        left = EngineStats(trials=5, retries=1,
                           cache_evictions=2, resumed_verdicts=3)
        right = EngineStats(trials=7, retries=2, invariant_retries=1)
        left.absorb(right)
        assert left.trials == 12
        assert left.retries == 3
        assert left.invariant_retries == 1
        assert left.cache_evictions == 2
        assert left.resumed_verdicts == 3

    @staticmethod
    def _distinct_stats(offset: int) -> EngineStats:
        """Stats whose every field holds a value unique to ``offset``."""
        values = {}
        for number, spec in enumerate(fields(EngineStats), 1):
            default = getattr(EngineStats(), spec.name)
            seed = offset * 100 + number
            if isinstance(default, list):
                values[spec.name] = [ChunkTiming(seed, seed, 0.5, seed)]
            else:
                values[spec.name] = type(default)(seed)
        return EngineStats(**values)

    def test_every_field_is_absorbed_and_serialised(self):
        """Adding a field to EngineStats needs no hand-kept plumbing:
        absorb folds it and the JSON snapshot carries it."""
        left, right = self._distinct_stats(1), self._distinct_stats(2)
        before = self._distinct_stats(1)
        left.absorb(right)
        for spec in fields(EngineStats):
            mine = getattr(before, spec.name)
            theirs = getattr(right, spec.name)
            if spec.name == "workers":
                expected = max(mine, theirs)
            else:
                expected = mine + theirs  # numbers add, lists extend
            assert getattr(left, spec.name) == expected, spec.name
        snapshot = before.to_json_dict()
        names = {spec.name for spec in fields(EngineStats)}
        assert set(snapshot) == names - {"chunk_timings"}
        for name, value in snapshot.items():
            assert value == getattr(before, name), name


class TestArtifactWriting:
    def test_creates_missing_directories(self, tmp_path):
        path = str(tmp_path / "a" / "b" / "artifact.txt")
        written = write_artifact(path, "hello\n")
        assert written == path
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "hello\n"

    def test_overwrite_is_atomic_no_tmp_left(self, tmp_path):
        path = str(tmp_path / "artifact.txt")
        write_artifact(path, "first\n")
        write_artifact(path, "second\n")
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "second\n"
        leftovers = [name for name in os.listdir(str(tmp_path))
                     if name != "artifact.txt"]
        assert leftovers == []

    def test_best_effort_swallows_os_errors(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file, not a directory")
        target = str(blocker / "nested" / "artifact.txt")
        assert write_artifact(target, "x", best_effort=True) is None

    def test_strict_mode_raises_os_errors(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file, not a directory")
        target = str(blocker / "nested" / "artifact.txt")
        with pytest.raises(OSError):
            write_artifact(target, "x")
