"""Resume safety of the sequential estimators: killed == uninterrupted.

The acceptance criterion: an adaptive/sequential run killed mid-flight
(chaos-style, via the progress callback — the same code path a Ctrl-C
takes) and resumed from its journal must reach the **bit-identical**
verdict, trial count and fault stream as a run that never died, for
more than one worker count.  The estimator's decision sequence is a
pure function of the journaled per-batch counts, which is what these
tests prove end to end.
"""

import pytest

from repro.analysis import n_gadget_evaluator
from repro.analysis.sequential import (
    adaptive_sweep_p,
    run_sequential_monte_carlo,
    run_sequential_pair_sampling,
)
from repro.exceptions import CheckpointError
from repro.ft import build_n_gadget, sparse_coset_state
from repro.noise import NoiseModel
from repro.runtime import CheckpointStore, garble_checkpoint_record


@pytest.fixture(scope="module")
def tiny(trivial):
    gadget = build_n_gadget(trivial)
    initial = gadget.initial_state(
        {"quantum": sparse_coset_state(trivial, 0)}
    )
    evaluator = n_gadget_evaluator(gadget, trivial, 0)
    return gadget, initial, evaluator


class _InterruptAfter:
    """Raise KeyboardInterrupt after N sample-phase batches."""

    def __init__(self, batches: int, phase: str = "sample") -> None:
        self.batches = batches
        self.phase = phase
        self.seen = 0

    def __call__(self, event) -> None:
        if event.phase != self.phase:
            return
        self.seen += 1
        if self.seen >= self.batches:
            raise KeyboardInterrupt


# Parameters chosen so the uninterrupted run needs several batches
# before the SPRT decides (rate ~0.0625 against p0=0.05, p1=0.09).
_SEQ_KWARGS = dict(p0=0.05, p1=0.09, max_trials=6000, batch_size=64)


class TestSequentialMonteCarloResume:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_run_resumes_bit_identically(self, tiny, tmp_path,
                                                workers):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.05)
        baseline = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            workers=workers, **_SEQ_KWARGS)
        assert baseline.batches > 2, "need a multi-batch run to kill"

        store = CheckpointStore(str(tmp_path / f"seq-w{workers}"))
        with pytest.raises(KeyboardInterrupt):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise, seed=2025,
                workers=workers, checkpoint=store,
                progress=_InterruptAfter(2), **_SEQ_KWARGS)
        journaled = len(store.load_records("batches"))
        assert journaled > 0
        assert store.load_state("cursor")["interrupted"] is True
        assert store.load_final() is None
        # The estimator state is journaled alongside the batches.
        estimator = store.load_state("estimator")
        assert estimator["method"] == "sprt"
        assert estimator["state"]["trials"] == journaled * 64

        resumed = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            workers=workers, checkpoint=store, **_SEQ_KWARGS)
        assert resumed.verdict == baseline.verdict
        assert resumed.result == baseline.result
        assert resumed.batches == baseline.batches
        final = store.load_final()
        assert final["complete"] is True
        assert final["summary"]["decision"] == baseline.decision

    def test_mid_batch_kill_resamples_deterministically(self, tiny,
                                                        tmp_path):
        """A kill *inside* a batch (during evaluate) leaves that batch
        unjournaled; resume re-samples it from the same stream."""
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.05)
        baseline = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            **_SEQ_KWARGS)
        store = CheckpointStore(str(tmp_path / "midbatch"))
        with pytest.raises(KeyboardInterrupt):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise, seed=2025,
                checkpoint=store,
                progress=_InterruptAfter(1, phase="evaluate"),
                **_SEQ_KWARGS)
        resumed = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            checkpoint=store, **_SEQ_KWARGS)
        assert resumed.verdict == baseline.verdict
        assert resumed.result == baseline.result

    def test_changed_boundaries_are_refused(self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.05)
        store = CheckpointStore(str(tmp_path / "fingerprint"))
        with pytest.raises(KeyboardInterrupt):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise, seed=2025,
                checkpoint=store, progress=_InterruptAfter(1),
                **_SEQ_KWARGS)
        # Resuming under a different claim (p0) would silently change
        # the decision semantics — it must be refused, not absorbed.
        with pytest.raises(CheckpointError, match="different run"):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise, seed=2025,
                checkpoint=store, p0=0.01, p1=0.09,
                max_trials=6000, batch_size=64)

    def test_garbled_batch_journal_is_refused(self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.05)
        store = CheckpointStore(str(tmp_path / "garbled"))
        run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            checkpoint=store, **_SEQ_KWARGS)
        garble_checkpoint_record(store, kind="batches")
        with pytest.raises(CheckpointError):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise, seed=2025,
                checkpoint=store, **_SEQ_KWARGS)


class TestBatchedSequentialResume:
    """Stack width under the same kill/resume contract: runs at every
    width journal, die and resume exactly like one-lane runs, and a
    journal written at one width resumes at any other."""

    def test_batched_run_equals_serial_run(self, tiny, stack_lanes):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.05)
        stack_lanes(1, initial)
        serial = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            **_SEQ_KWARGS)
        for lanes in (7, 64):
            stack_lanes(lanes, initial)
            batched = run_sequential_monte_carlo(
                gadget, initial, evaluator, noise, seed=2025,
                **_SEQ_KWARGS)
            assert batched.verdict == serial.verdict
            assert batched.result == serial.result
            assert batched.batches == serial.batches

    def test_sequential_batched_is_prefix_of_fixed_budget(
            self, tiny, stack_lanes):
        """The stopped batched run consumed a bit-identical prefix of
        the fixed-budget batched engine run at the same seed."""
        from repro.analysis.engine import run_monte_carlo

        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.05)
        stack_lanes(32, initial)
        sequential = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            **_SEQ_KWARGS)
        fixed = run_monte_carlo(
            gadget, initial, evaluator, noise,
            trials=sequential.result.trials, seed=2025,
            chunk_size=_SEQ_KWARGS["batch_size"])
        assert fixed == sequential.result

    def test_killed_batched_run_resumes_bit_identically(
            self, tiny, tmp_path, stack_lanes):
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.05)
        stack_lanes(1, initial)
        serial = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            **_SEQ_KWARGS)
        stack_lanes(32, initial)
        store = CheckpointStore(str(tmp_path / "batched"))
        with pytest.raises(KeyboardInterrupt):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise, seed=2025,
                checkpoint=store, progress=_InterruptAfter(2),
                **_SEQ_KWARGS)
        assert store.load_state("cursor")["interrupted"] is True
        resumed = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            checkpoint=store, **_SEQ_KWARGS)
        # The resumed batched run equals the never-killed one-lane
        # run: same verdicts, same decision, same journaled stream.
        assert resumed.verdict == serial.verdict
        assert resumed.result == serial.result
        assert resumed.batches == serial.batches
        assert store.load_final()["complete"] is True

    @pytest.mark.parametrize("first, second", [(1, 32), (32, 1)])
    def test_cross_width_resume_finishes_bit_identically(
            self, tiny, tmp_path, stack_lanes, first, second):
        """A journal written at one stack width resumes at another and
        finishes as the uninterrupted run does."""
        gadget, initial, evaluator = tiny
        noise = NoiseModel.uniform(0.05)
        baseline = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            **_SEQ_KWARGS)
        stack_lanes(first, initial)
        store = CheckpointStore(str(tmp_path / "crosswidth"))
        with pytest.raises(KeyboardInterrupt):
            run_sequential_monte_carlo(
                gadget, initial, evaluator, noise, seed=2025,
                checkpoint=store, progress=_InterruptAfter(2),
                **_SEQ_KWARGS)
        stack_lanes(second, initial)
        resumed = run_sequential_monte_carlo(
            gadget, initial, evaluator, noise, seed=2025,
            checkpoint=store, **_SEQ_KWARGS)
        assert resumed.result.engine_stats.resumed_verdicts > 0
        assert resumed.verdict == baseline.verdict
        assert resumed.result == baseline.result
        assert resumed.batches == baseline.batches
        assert store.load_final()["complete"] is True

    def test_batched_pair_run_equals_serial(self, tiny, stack_lanes):
        gadget, initial, evaluator = tiny
        kwargs = dict(f0=0.7, f1=0.8, max_samples=1500, seed=31,
                      batch_size=64)
        stack_lanes(1, initial)
        serial = run_sequential_pair_sampling(
            gadget, initial, evaluator, **kwargs)
        stack_lanes(16, initial)
        batched = run_sequential_pair_sampling(
            gadget, initial, evaluator, **kwargs)
        assert batched.verdict == serial.verdict
        assert batched.sample == serial.sample
        assert batched.batches == serial.batches

    def test_batched_adaptive_sweep_equals_serial(self, tiny,
                                                  stack_lanes):
        gadget, initial, evaluator = tiny
        kwargs = dict(p_values=[0.01, 0.05, 0.2],
                      total_trials=12 * 128, seed=5, batch_size=128)
        stack_lanes(1, initial)
        serial = adaptive_sweep_p(gadget, initial, evaluator, **kwargs)
        stack_lanes(32, initial)
        batched = adaptive_sweep_p(gadget, initial, evaluator, **kwargs)
        assert batched.allocation == serial.allocation
        assert batched.results == serial.results
        assert batched.intervals == serial.intervals


class TestSequentialPairResume:
    def test_killed_pair_run_resumes_bit_identically(self, tiny,
                                                     tmp_path):
        gadget, initial, evaluator = tiny
        kwargs = dict(f0=0.7, f1=0.8, max_samples=1500, seed=31,
                      batch_size=64)
        baseline = run_sequential_pair_sampling(
            gadget, initial, evaluator, **kwargs)
        assert baseline.batches > 2
        store = CheckpointStore(str(tmp_path / "pairs"))
        with pytest.raises(KeyboardInterrupt):
            run_sequential_pair_sampling(
                gadget, initial, evaluator, checkpoint=store,
                progress=_InterruptAfter(2, phase="evaluate"),
                **kwargs)
        resumed = run_sequential_pair_sampling(
            gadget, initial, evaluator, checkpoint=store, **kwargs)
        assert resumed.verdict == baseline.verdict
        assert resumed.sample == baseline.sample
        assert resumed.batches == baseline.batches


class TestAdaptiveSweepResume:
    _SWEEP = dict(p_values=[0.01, 0.05, 0.2], total_trials=12 * 128,
                  seed=5, batch_size=128)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_killed_sweep_resumes_identically(self, tiny, tmp_path,
                                              workers):
        gadget, initial, evaluator = tiny
        baseline = adaptive_sweep_p(gadget, initial, evaluator,
                                    workers=workers, **self._SWEEP)
        store = CheckpointStore(str(tmp_path / f"sweep-w{workers}"))
        with pytest.raises(KeyboardInterrupt):
            adaptive_sweep_p(gadget, initial, evaluator,
                             workers=workers, checkpoint=store,
                             progress=_InterruptAfter(4), **self._SWEEP)
        done = len(store.load_records("alloc"))
        assert 0 < done < 12
        assert store.load_state("cursor")["interrupted"] is True
        resumed = adaptive_sweep_p(gadget, initial, evaluator,
                                   workers=workers, checkpoint=store,
                                   **self._SWEEP)
        # The schedule is a pure function of journaled counts: the
        # resumed sweep deals the remaining batches to the same points
        # and lands on the identical series.
        assert resumed.allocation == baseline.allocation
        assert resumed.results == baseline.results
        assert resumed.intervals == baseline.intervals
        assert store.load_final()["summary"]["allocation"] == \
            baseline.allocation

    def test_changed_p_grid_is_refused(self, tiny, tmp_path):
        gadget, initial, evaluator = tiny
        store = CheckpointStore(str(tmp_path / "grid"))
        with pytest.raises(KeyboardInterrupt):
            adaptive_sweep_p(gadget, initial, evaluator,
                             checkpoint=store,
                             progress=_InterruptAfter(4), **self._SWEEP)
        with pytest.raises(CheckpointError, match="different run"):
            adaptive_sweep_p(gadget, initial, evaluator,
                             p_values=[0.01, 0.05], total_trials=1536,
                             seed=5, batch_size=128, checkpoint=store)
