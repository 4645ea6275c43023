"""Checkpoint/resume certification: interrupted == uninterrupted.

The resilience claim that matters most: a campaign killed mid-flight
and resumed must produce **bit-identical** statistics to one that
never died.  These tests interrupt real engine runs (a
KeyboardInterrupt raised from the progress callback — the same code
path a Ctrl-C takes), resume them, and compare against uninterrupted
baselines, for more than one worker count.
"""

import dataclasses

import pytest

from repro.analysis import n_gadget_evaluator, sweep_p
from repro.analysis.engine import (
    FaultPatternCache,
    run_exhaustive,
    run_malignant_pairs,
    run_monte_carlo,
)
from repro.exceptions import AnalysisError, CheckpointError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel
from repro.runtime import CheckpointStore
from repro.verify.oracle import differential_sweep


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


class _InterruptAfter:
    """Raise KeyboardInterrupt after N evaluate-phase chunks — the
    deterministic stand-in for an operator's Ctrl-C (or a SIGKILL
    landing between chunks: either way, the journal holds exactly the
    completed chunks)."""

    def __init__(self, chunks: int) -> None:
        self.chunks = chunks
        self.seen = 0

    def __call__(self, event) -> None:
        if event.phase != "evaluate":
            return
        self.seen += 1
        if self.seen >= self.chunks:
            raise KeyboardInterrupt


class TestMonteCarloResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_run_resumes_bit_identically(self, tiny, tmp_path,
                                                workers):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        kwargs = dict(trials=2000, seed=2024, workers=workers,
                      chunk_size=16)
        baseline = run_monte_carlo(gadget, initial, evaluator, noise,
                                   **kwargs)
        store = CheckpointStore(str(tmp_path / f"run-w{workers}"))
        with pytest.raises(KeyboardInterrupt):
            run_monte_carlo(gadget, initial, evaluator, noise,
                            checkpoint=store,
                            progress=_InterruptAfter(2), **kwargs)
        # The interrupt left a journal with the completed chunks and a
        # clean interruption marker, but no completion marker.
        journaled = len(store.load_verdicts())
        assert journaled > 0
        assert store.load_state("cursor")["interrupted"] is True
        assert store.load_final() is None
        resumed = run_monte_carlo(gadget, initial, evaluator, noise,
                                  checkpoint=store, **kwargs)
        assert resumed == baseline
        assert resumed.engine_stats.resumed_verdicts == journaled
        # Resume replayed the journal instead of redoing the work.
        assert resumed.engine_stats.evaluations < \
            baseline.engine_stats.evaluations
        assert store.load_final()["complete"] is True

    def test_completed_run_resumes_from_cache_alone(self, tiny,
                                                    tmp_path):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        kwargs = dict(trials=500, seed=11, workers=1, chunk_size=64)
        store = str(tmp_path / "done")
        first = run_monte_carlo(gadget, initial, evaluator, noise,
                                checkpoint=store, **kwargs)
        again = run_monte_carlo(gadget, initial, evaluator, noise,
                                checkpoint=store, **kwargs)
        assert again == first
        assert again.engine_stats.evaluations == 0
        assert again.engine_stats.resumed_verdicts > 0

    def test_clear_restarts_the_journal(self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        kwargs = dict(trials=300, seed=3, workers=1)
        store = CheckpointStore(str(tmp_path / "restart"))
        first = run_monte_carlo(gadget, initial, evaluator, noise,
                                checkpoint=store, **kwargs)
        store.clear()
        fresh = run_monte_carlo(gadget, initial, evaluator, noise,
                                checkpoint=store, **kwargs)
        assert fresh.engine_stats.resumed_verdicts == 0
        assert fresh.engine_stats.evaluations \
            == first.engine_stats.evaluations
        assert fresh == first

    def test_mismatched_run_is_refused(self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        store = CheckpointStore(str(tmp_path / "mismatch"))
        run_monte_carlo(gadget, initial, evaluator, noise, trials=200,
                        seed=1, workers=1, checkpoint=store)
        with pytest.raises(CheckpointError, match="different run"):
            run_monte_carlo(gadget, initial, evaluator, noise,
                            trials=200, seed=2, workers=1,
                            checkpoint=store)

    def test_checkpoint_requires_seed(self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.25)
        with pytest.raises(AnalysisError, match="seed"):
            run_monte_carlo(gadget, initial, evaluator, noise,
                            trials=100, workers=1,
                            checkpoint=str(tmp_path / "a"))


class TestOtherWorkloadsResume:
    def test_exhaustive_resumes_without_seed(self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        baseline = run_exhaustive(gadget, initial, evaluator,
                                  workers=1, chunk_size=2)
        store = CheckpointStore(str(tmp_path / "exhaustive"))
        with pytest.raises(KeyboardInterrupt):
            run_exhaustive(gadget, initial, evaluator, workers=1,
                           chunk_size=2, checkpoint=store,
                           progress=_InterruptAfter(1))
        resumed = run_exhaustive(gadget, initial, evaluator,
                                 workers=1, chunk_size=2,
                                 checkpoint=store)
        assert resumed.failures == baseline.failures
        assert resumed.checked == baseline.checked
        assert resumed.stats.resumed_verdicts > 0

    def test_malignant_pairs_resume(self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        kwargs = dict(samples=800, seed=5, workers=1, chunk_size=16)
        baseline = run_malignant_pairs(gadget, initial, evaluator,
                                       **kwargs)
        store = CheckpointStore(str(tmp_path / "pairs"))
        with pytest.raises(KeyboardInterrupt):
            run_malignant_pairs(gadget, initial, evaluator,
                                checkpoint=store,
                                progress=_InterruptAfter(1), **kwargs)
        resumed = run_malignant_pairs(gadget, initial, evaluator,
                                      checkpoint=store, **kwargs)
        assert resumed == baseline
        assert resumed.engine_stats.resumed_verdicts > 0


class TestSweepResume:
    def test_sweep_resumes_completed_and_partial_points(self, tiny,
                                                        tmp_path):
        gadget, initial, evaluator = tiny
        p_values = [0.05, 0.2, 0.3]
        kwargs = dict(trials=600, seed=9, workers=1, chunk_size=16)
        baseline = sweep_p(gadget, initial, evaluator, p_values,
                           **kwargs)
        store = CheckpointStore(str(tmp_path / "sweep"))

        def interrupt_after_first_point(event):
            # Fires once at least one *completed point* is journaled:
            # point 0 whole, the in-flight point partially.
            if event.phase != "evaluate":
                return
            if store.load_records("points"):
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            sweep_p(gadget, initial, evaluator, p_values,
                    checkpoint=store,
                    progress=interrupt_after_first_point, **kwargs)
        done_before_resume = len(store.load_records("points"))
        assert 1 <= done_before_resume < len(p_values)
        resumed = sweep_p(gadget, initial, evaluator, p_values,
                          checkpoint=store, **kwargs)
        assert resumed == baseline
        assert len(store.load_records("points")) == len(p_values)
        assert store.load_final()["summary"]["points"] == len(p_values)

    def test_sweep_checkpoint_requires_seed(self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        with pytest.raises(AnalysisError, match="seed"):
            sweep_p(gadget, initial, evaluator, [0.1], trials=50,
                    workers=1, checkpoint=str(tmp_path / "s"))

    def test_sweep_fingerprint_pins_p_values(self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        store = str(tmp_path / "pins")
        sweep_p(gadget, initial, evaluator, [0.1], trials=50, seed=1,
                workers=1, checkpoint=store)
        with pytest.raises(CheckpointError, match="different run"):
            sweep_p(gadget, initial, evaluator, [0.2], trials=50,
                    seed=1, workers=1, checkpoint=store)

    def test_sweep_refuses_other_locations_of_equal_size(self, tiny,
                                                          tmp_path):
        """Two location lists of the same length must not share a
        journal: moving every fault to the circuit input changes the
        numbers ([22, 53] -> [22, 51] fresh), so resuming the default
        run's journal would return the wrong series."""
        gadget, initial, evaluator = tiny
        moved = [dataclasses.replace(location, after_op=-1)
                 for location in gadget.fault_locations()]
        store = str(tmp_path / "locs")
        default = sweep_p(gadget, initial, evaluator, [0.05, 0.1], 400,
                          seed=3, checkpoint=store)
        fresh = sweep_p(gadget, initial, evaluator, [0.05, 0.1], 400,
                        seed=3, locations=moved)
        assert [r.failures for r in default] == [22, 53]
        assert [r.failures for r in fresh] == [22, 51]
        with pytest.raises(CheckpointError, match="location_digest"):
            sweep_p(gadget, initial, evaluator, [0.05, 0.1], 400,
                    seed=3, locations=moved, checkpoint=store)

    def test_engine_refuses_other_locations_of_equal_size(self, tiny,
                                                           tmp_path):
        gadget, initial, evaluator = tiny
        moved = [dataclasses.replace(location, after_op=-1)
                 for location in gadget.fault_locations()]
        store = str(tmp_path / "mc")
        run_monte_carlo(gadget, initial, evaluator,
                        NoiseModel.uniform(0.1), 64, seed=3,
                        checkpoint=store)
        with pytest.raises(CheckpointError, match="location_digest"):
            run_monte_carlo(gadget, initial, evaluator,
                            NoiseModel.uniform(0.1), 64, seed=3,
                            locations=moved, checkpoint=store)
        # Passing the defaults explicitly is the same run.
        resumed = run_monte_carlo(
            gadget, initial, evaluator, NoiseModel.uniform(0.1), 64,
            seed=3, locations=gadget.fault_locations(), checkpoint=store)
        assert resumed.engine_stats.evaluations == 0

    def test_shared_cache_survives_sweep_points(self, tiny):
        # The sweep shares one verdict cache across points; later
        # points should mostly hit it.
        gadget, initial, evaluator = tiny
        cache = FaultPatternCache()
        results = sweep_p(gadget, initial, evaluator, [0.1, 0.2],
                          trials=400, seed=2, workers=1, cache=cache)
        assert results[1].engine_stats.cache_hits > 0


class TestDifferentialSweepResume:
    def test_interrupted_sweep_resumes_identically(self, tmp_path,
                                                   monkeypatch):
        import repro.verify.oracle as oracle_module

        baseline = differential_sweep(num_circuits=12, seed=3,
                                      max_qubits=3, max_gates=10)
        store = CheckpointStore(str(tmp_path / "diff"))
        real_generate = oracle_module.generators.generate
        calls = {"n": 0}

        def dying_generate(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 7:
                raise KeyboardInterrupt
            return real_generate(*args, **kwargs)

        monkeypatch.setattr(oracle_module.generators, "generate",
                            dying_generate)
        with pytest.raises(KeyboardInterrupt):
            differential_sweep(num_circuits=12, seed=3, max_qubits=3,
                               max_gates=10, checkpoint=store,
                               flush_every=2)
        monkeypatch.setattr(oracle_module.generators, "generate",
                            real_generate)
        resumed = differential_sweep(num_circuits=12, seed=3,
                                     max_qubits=3, max_gates=10,
                                     checkpoint=store, flush_every=2)
        assert resumed.circuits_run == 12
        assert len(resumed.divergences) == len(baseline.divergences)
        assert resumed.clean == baseline.clean
        assert store.load_final()["summary"]["circuits_run"] == 12

    def test_fast_forward_skips_checked_circuits(self, tmp_path,
                                                 monkeypatch):
        import repro.verify.oracle as oracle_module

        store = CheckpointStore(str(tmp_path / "ff"))
        first = differential_sweep(num_circuits=9, seed=4,
                                   max_qubits=3, max_gates=8,
                                   checkpoint=store, flush_every=3)
        assert first.circuits_run == 9

        def exploding_generate(*args, **kwargs):
            raise AssertionError("resume should not re-check circuits")

        monkeypatch.setattr(oracle_module.generators, "generate",
                            exploding_generate)
        resumed = differential_sweep(num_circuits=9, seed=4,
                                     max_qubits=3, max_gates=8,
                                     checkpoint=store, flush_every=3)
        assert resumed.circuits_run == 9
        assert resumed.clean == first.clean

    def test_sweep_size_change_is_refused(self, tmp_path):
        store = CheckpointStore(str(tmp_path / "size"))
        differential_sweep(num_circuits=6, seed=5, max_qubits=3,
                           max_gates=8, checkpoint=store,
                           flush_every=2)
        with pytest.raises(CheckpointError, match="different run"):
            differential_sweep(num_circuits=12, seed=5, max_qubits=3,
                               max_gates=8, checkpoint=store,
                               flush_every=2)

    def test_corrupted_journal_is_refused(self, tmp_path):
        from repro.runtime import garble_checkpoint_record

        store = CheckpointStore(str(tmp_path / "corrupt"))
        differential_sweep(num_circuits=6, seed=5, max_qubits=3,
                           max_gates=8, checkpoint=store,
                           flush_every=2)
        garble_checkpoint_record(store, kind="circuits")
        with pytest.raises(CheckpointError):
            differential_sweep(num_circuits=6, seed=5, max_qubits=3,
                               max_gates=8, checkpoint=store,
                               flush_every=2)
