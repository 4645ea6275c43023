"""Sequential and adaptive Monte-Carlo certification runners.

The fixed-budget samplers in :mod:`repro.analysis.montecarlo` burn
their entire trial budget even when the claim under test ("this
gadget's failure rate is below p0") was decided thousands of trials
ago.  This module adds the sequential layer on top of the engine:

* :func:`run_sequential_monte_carlo` — batchwise Monte Carlo whose
  stopping time is driven by an :class:`~repro.analysis.stats.Sprt`
  or always-valid confidence sequence, returning a typed
  :class:`~repro.analysis.stats.ClaimVerdict` alongside the ordinary
  :class:`~repro.analysis.montecarlo.GadgetMonteCarloResult`.
* :func:`run_sequential_pair_sampling` — the same treatment for the
  malignant-pair fraction behind the paper's threshold estimate.
* :func:`adaptive_sweep_p` — a variance-aware ``sweep_p``: a shared
  trial budget is allocated batch-by-batch to the p-points whose
  confidence intervals are widest (or nearest a decision boundary),
  under a deterministic schedule.

**Determinism contract.**  Batch ``b`` of a sequential run draws its
faults from ``chunk_seed_sequence(seed, b, stream_key)`` — exactly the
stream the fixed-budget engine assigns to chunk ``b`` at the same
``(seed, chunk_size)``.  Stopping after ``n`` batches therefore
consumes a bit-identical *prefix* of the fixed run's fault stream: the
decision changes how many trials are drawn, never which ones.  The
adaptive sweep keys point ``i`` by ``seed + i`` (the ``sweep_p``
convention), and its allocation schedule is a pure function of the
accumulated counts, so results are reproducible for any worker count.

**Resume safety.**  With ``checkpoint=`` every completed batch is
journaled (counts per batch, plus the engine's verdict journal) and
the estimator state is a deterministic function of those counts, so a
killed run resumed from its journal replays the identical decision
sequence, reaches the identical verdict and trial count, and continues
the identical fault stream — proven by the chaos tests in
``tests/runtime/test_sequential_resume.py``.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.exceptions import AnalysisError
from repro.ft.gadget import Gadget
from repro.noise.locations import FaultLocation
from repro.noise.model import NoiseModel
from repro.runtime.policy import RuntimePolicy
from repro.simulators.sparse import SparseState

from repro.analysis.engine import (
    DEFAULT_CHUNK_SIZE,
    EngineStats,
    FaultPattern,
    FaultPatternCache,
    ProgressEvent,
    _coerce_count,
    _coerce_positive,
    _require_pair_locations,
    _Run,
    chunk_seed_sequence,
    sample_fault_chunk,
    sample_pair_chunk,
)
from repro.analysis.montecarlo import (
    GadgetMonteCarloResult,
    MalignantPairSample,
)
from repro.analysis.stats import (
    BinomialInterval,
    ClaimVerdict,
    binomial_interval,
    build_claim_verdict,
    make_sequential_test,
)


@dataclass
class SequentialResult:
    """A sequential certification run's full outcome."""

    verdict: ClaimVerdict
    result: GadgetMonteCarloResult
    batches: int

    @property
    def decision(self) -> str:
        return self.verdict.decision


@dataclass
class SequentialPairResult:
    """Sequential malignant-pair certification outcome."""

    verdict: ClaimVerdict
    sample: MalignantPairSample
    batches: int

    @property
    def decision(self) -> str:
        return self.verdict.decision


def _merge_counts(total: Dict[int, int], delta: Dict[int, int]) -> None:
    for key, value in delta.items():
        total[key] = total.get(key, 0) + value


def _batch_failures(pattern_counts: Dict[FaultPattern, int],
                    verdict_map: Dict[FaultPattern, bool],
                    failures_by_count: Dict[int, int]) -> int:
    failures = 0
    for pattern, multiplicity in pattern_counts.items():
        if not verdict_map[pattern]:
            failures += multiplicity
            count = len(pattern)
            failures_by_count[count] = \
                failures_by_count.get(count, 0) + multiplicity
    return failures


def run_sequential_monte_carlo(
        gadget: Gadget,
        initial_state: SparseState,
        evaluator: Callable[[SparseState], bool],
        noise: NoiseModel,
        *,
        p0: float,
        p1: float,
        alpha: float = 0.05,
        beta: float = 0.05,
        max_trials: int,
        seed: int,
        batch_size: int = DEFAULT_CHUNK_SIZE,
        method: str = "sprt",
        claim: Optional[str] = None,
        locations: Optional[Sequence[FaultLocation]] = None,
        workers: int = 1,
        eval_batch_size: int = 1,
        prefetch: bool = False,
        memoize: bool = True,
        cache: Optional[FaultPatternCache] = None,
        invariant: Optional[Callable[[SparseState], None]] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        on_batch: Optional[Callable[[int, int, int, Optional[str]],
                                    None]] = None,
        checkpoint=None,
        resume: bool = True,
        runtime: Optional[RuntimePolicy] = None,
) -> SequentialResult:
    """Certify ``failure_rate <= p0`` sequentially, stopping early.

    Runs Monte-Carlo batches of ``batch_size`` trials through the
    engine's sample→dedup→evaluate schedule, feeding each batch's
    failure count to a sequential test (``method``: ``sprt`` or
    ``confidence-sequence``) of H0: rate <= ``p0`` against
    H1: rate >= ``p1`` at error rates ``alpha``/``beta``.  Stops at
    the first decision or at ``max_trials``, whichever comes first,
    and returns the typed verdict plus the aggregate result over the
    trials actually consumed.

    Requires an explicit ``seed``: batch ``b`` draws from the same
    stream as fixed-budget chunk ``b`` (see
    :func:`repro.analysis.engine.chunk_seed_sequence`), so the
    sequential run's samples are a bit-identical prefix of
    ``run_monte_carlo(..., trials=<consumed>, chunk_size=batch_size)``.

    ``checkpoint``/``resume`` journal completed batches and verdicts;
    a killed run resumed from the journal reaches the identical
    verdict, trial count and fault stream as an uninterrupted one.

    ``eval_batch_size > 1`` evaluates each batch's distinct patterns
    through the vectorised :mod:`repro.simulators.batched` stack
    (named to avoid colliding with ``batch_size``, which here is the
    *sampling* chunk size and part of the seed contract).  Verdicts,
    SPRT decisions and journals are bit-identical either way; batched
    journals carry an ``eval_path`` fingerprint marker so a resume
    never silently swaps paths.

    ``prefetch=True`` pipelines batch ``b+1``'s fault sampling on a
    helper thread while batch ``b`` evaluates — safe because chunk
    streams are independent per batch and a prefetched draw is
    discarded unused if the test stops first.  Off by default: with
    ``workers > 1`` the evaluation pool forks while the sampler
    thread may be running, which is best opted into knowingly.

    ``on_batch`` is the streaming hook: after every batch is folded
    into the estimator (journaled batches replayed on resume
    included), it is called with ``(batch_index, trials_consumed,
    failures_total, decision_so_far)``.  The certification service
    uses it to append per-batch confidence-interval events to the job
    journal while the run is still in flight; it observes, never
    influences — an exception raised from it propagates like
    ``KeyboardInterrupt`` (completed batches stay journaled).
    """
    run = _Run(gadget, initial_state, evaluator, locations, noise=noise,
               workers=workers, batch_size=eval_batch_size,
               memoize=memoize, cache=cache, progress=progress,
               invariant=invariant, runtime=runtime)
    if seed is None:
        raise AnalysisError(
            "sequential certification requires an explicit seed: the "
            "stopping decision must be replayable over a reproducible "
            "fault stream"
        )
    max_trials = _coerce_count(max_trials, "max_trials", minimum=1)
    batch_size = _coerce_positive(batch_size, "batch_size")
    test = make_sequential_test(method, p0, p1, alpha=alpha, beta=beta)
    run.open("sequential_monte_carlo", {
        "seed": seed,
        "max_trials": max_trials,
        "batch_size": batch_size,
        "p0": float(p0),
        "p1": float(p1),
        "alpha": float(alpha),
        "beta": float(beta),
        "method": method,
    }, checkpoint, resume)
    gadget, space = run.gadget, run.space
    store, stats = run.store, run.stats
    probs = space.probabilities(noise)
    stream_key = noise.stream_key()

    histogram: Dict[int, int] = {}
    failures_by_count: Dict[int, int] = {}
    consumed = 0
    failures_total = 0
    batch_index = 0

    if store is not None:
        # Replay completed batches: the estimator's decision sequence
        # is a pure function of the journaled per-batch counts.
        for record in store.load_records("batches"):
            _merge_counts(histogram, {
                int(k): int(v)
                for k, v in record["histogram"].items()})
            _merge_counts(failures_by_count, {
                int(k): int(v)
                for k, v in record["failures_by_fault_count"].items()})
            consumed += int(record["length"])
            failures_total += int(record["failures"])
            test.update(int(record["failures"]), int(record["length"]))
            batch_index = int(record["batch"]) + 1
            if on_batch is not None:
                on_batch(batch_index - 1, consumed, failures_total,
                         test.decision)

    def _draw_batch(
            index: int, length: int,
    ) -> Tuple[Dict[int, int], Dict[FaultPattern, int], float]:
        """Sample one batch's fault stream.

        Thread-safe by construction: every call builds its own rng
        from the batch's chunk seed and writes only local dicts, so
        the prefetch thread and the main loop never share state.
        """
        rng = np.random.default_rng(
            chunk_seed_sequence(seed, index, stream_key=stream_key))
        draw_start = time.perf_counter()
        drawn_histogram: Dict[int, int] = {}
        drawn_patterns: Dict[FaultPattern, int] = {}
        sample_fault_chunk(noise, gadget, space, probs, rng, length,
                           drawn_histogram, drawn_patterns)
        return (drawn_histogram, drawn_patterns,
                time.perf_counter() - draw_start)

    executor: Optional[ThreadPoolExecutor] = None
    if prefetch:
        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-sample-prefetch")
    pending: Optional[Tuple[int, Future]] = None
    try:
        with run.interruptible(lambda: {"batches_done": batch_index,
                                        "trials": consumed}):
            while test.decision is None and consumed < max_trials:
                length = min(batch_size, max_trials - consumed)
                if pending is not None and pending[0] == batch_index:
                    batch_histogram, batch_patterns, sampled = \
                        pending[1].result()
                else:
                    batch_histogram, batch_patterns, sampled = \
                        _draw_batch(batch_index, length)
                pending = None
                stats.sample_seconds += sampled
                stats.chunks += 1
                if executor is not None:
                    # Overlap the next batch's sampling with this
                    # batch's evaluation.  Length is fixed now
                    # (consumed is not yet advanced, so next =
                    # max_trials-consumed-length); if the test decides
                    # first the draw is discarded.
                    next_length = min(batch_size,
                                      max_trials - consumed - length)
                    if next_length > 0:
                        pending = (batch_index + 1, executor.submit(
                            _draw_batch, batch_index + 1, next_length))
                if progress is not None:
                    progress(ProgressEvent(
                        phase="sample", done=consumed + length,
                        total=max_trials, chunk_index=batch_index,
                        chunks_total=-(-max_trials // batch_size),
                        elapsed_seconds=time.perf_counter() - run.start,
                    ))
                verdict_map = run.verdicts(batch_patterns, batch_size)
                batch_fbc: Dict[int, int] = {}
                batch_failures = _batch_failures(batch_patterns,
                                                 verdict_map, batch_fbc)
                _merge_counts(failures_by_count, batch_fbc)
                _merge_counts(histogram, batch_histogram)
                consumed += length
                failures_total += batch_failures
                test.update(batch_failures, length)
                if store is not None:
                    store.append_record("batches", {
                        "batch": batch_index,
                        "length": length,
                        "failures": batch_failures,
                        "histogram": {str(k): v for k, v
                                      in batch_histogram.items()},
                        "failures_by_fault_count": {
                            str(k): v for k, v in batch_fbc.items()},
                    })
                    store.write_state("estimator", {
                        "method": method,
                        "state": test.state_dict(),
                    })
                if on_batch is not None:
                    on_batch(batch_index, consumed, failures_total,
                             test.decision)
                batch_index += 1
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    stats.trials = consumed
    claim_text = claim or (
        f"{gadget.name} failure_rate <= {p0:g} at p={noise.p_gate:g}"
    )
    verdict = build_claim_verdict(test, claim_text, method, max_trials)
    run.finish({
        "trials": consumed,
        "failures": failures_total,
        "decision": verdict.decision,
        "batches": batch_index,
    })
    result = GadgetMonteCarloResult(
        p=noise.p_gate,
        trials=consumed,
        failures=failures_total,
        failures_by_fault_count=failures_by_count,
        fault_count_histogram=histogram,
        engine_stats=stats,
    )
    return SequentialResult(verdict=verdict, result=result,
                            batches=batch_index)


def run_sequential_pair_sampling(
        gadget: Gadget,
        initial_state: SparseState,
        evaluator: Callable[[SparseState], bool],
        *,
        f0: float,
        f1: float,
        alpha: float = 0.05,
        beta: float = 0.05,
        max_samples: int,
        seed: int,
        batch_size: int = DEFAULT_CHUNK_SIZE,
        method: str = "sprt",
        claim: Optional[str] = None,
        locations: Optional[Sequence[FaultLocation]] = None,
        channel: str = "depolarizing",
        workers: int = 1,
        eval_batch_size: int = 1,
        prefetch: bool = False,
        memoize: bool = True,
        cache: Optional[FaultPatternCache] = None,
        invariant: Optional[Callable[[SparseState], None]] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        on_batch: Optional[Callable[[int, int, int, Optional[str]],
                                    None]] = None,
        checkpoint=None,
        resume: bool = True,
        runtime: Optional[RuntimePolicy] = None,
) -> SequentialPairResult:
    """Certify ``malignant_fraction <= f0`` sequentially.

    The malignant-pair fraction drives the paper's threshold estimate
    (p_th ~ 1 / (fraction * location_pairs)), so deciding it early is
    deciding the threshold early.  Same stream/stopping/resume
    contract as :func:`run_sequential_monte_carlo`, over the uniform
    distinct-location-pair draws of ``run_malignant_pairs`` — and the
    same ``eval_batch_size``/``prefetch`` accelerators and
    ``on_batch`` streaming hook, which change wall-clock and
    observability only, never verdicts or journals.
    """
    run = _Run(gadget, initial_state, evaluator, locations,
               channel=channel, workers=workers,
               batch_size=eval_batch_size, memoize=memoize, cache=cache,
               progress=progress, invariant=invariant, runtime=runtime)
    if seed is None:
        raise AnalysisError(
            "sequential certification requires an explicit seed"
        )
    max_samples = _coerce_count(max_samples, "max_samples", minimum=1)
    batch_size = _coerce_positive(batch_size, "batch_size")
    _require_pair_locations(run.space)
    test = make_sequential_test(method, f0, f1, alpha=alpha, beta=beta)
    run.open("sequential_pairs", {
        "seed": seed,
        "max_samples": max_samples,
        "batch_size": batch_size,
        "p0": float(f0),
        "p1": float(f1),
        "alpha": float(alpha),
        "beta": float(beta),
        "method": method,
        "channel": channel,
    }, checkpoint, resume)
    store, stats = run.store, run.stats
    consumed = 0
    malignant_total = 0
    batch_index = 0

    if store is not None:
        for record in store.load_records("batches"):
            consumed += int(record["length"])
            malignant_total += int(record["failures"])
            test.update(int(record["failures"]), int(record["length"]))
            batch_index = int(record["batch"]) + 1
            if on_batch is not None:
                on_batch(batch_index - 1, consumed, malignant_total,
                         test.decision)

    def _draw_batch(
            index: int, length: int,
    ) -> Tuple[Dict[FaultPattern, int], float]:
        """Sample one pair batch (thread-safe: all state is local)."""
        rng = np.random.default_rng(
            chunk_seed_sequence(seed, index))
        draw_start = time.perf_counter()
        drawn_patterns: Dict[FaultPattern, int] = {}
        sample_pair_chunk(run.space, rng, length, drawn_patterns)
        return drawn_patterns, time.perf_counter() - draw_start

    executor: Optional[ThreadPoolExecutor] = None
    if prefetch:
        executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-sample-prefetch")
    pending: Optional[Tuple[int, Future]] = None
    try:
        with run.interruptible(lambda: {"batches_done": batch_index,
                                        "samples": consumed}):
            while test.decision is None and consumed < max_samples:
                length = min(batch_size, max_samples - consumed)
                if pending is not None and pending[0] == batch_index:
                    batch_patterns, sampled = pending[1].result()
                else:
                    batch_patterns, sampled = _draw_batch(batch_index,
                                                          length)
                pending = None
                stats.sample_seconds += sampled
                stats.chunks += 1
                if executor is not None:
                    next_length = min(batch_size,
                                      max_samples - consumed - length)
                    if next_length > 0:
                        pending = (batch_index + 1, executor.submit(
                            _draw_batch, batch_index + 1, next_length))
                verdict_map = run.verdicts(batch_patterns, batch_size)
                batch_malignant = sum(
                    multiplicity for pattern, multiplicity
                    in batch_patterns.items()
                    if not verdict_map[pattern])
                consumed += length
                malignant_total += batch_malignant
                test.update(batch_malignant, length)
                if store is not None:
                    store.append_record("batches", {
                        "batch": batch_index,
                        "length": length,
                        "failures": batch_malignant,
                    })
                    store.write_state("estimator", {
                        "method": method,
                        "state": test.state_dict(),
                    })
                if on_batch is not None:
                    on_batch(batch_index, consumed, malignant_total,
                             test.decision)
                batch_index += 1
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    stats.trials = consumed
    claim_text = claim or (
        f"{run.gadget.name} malignant_fraction <= {f0:g}"
    )
    verdict = build_claim_verdict(test, claim_text, method,
                                  max_samples)
    run.finish({
        "samples": consumed,
        "malignant": malignant_total,
        "decision": verdict.decision,
        "batches": batch_index,
    })
    sample = MalignantPairSample(
        samples=consumed,
        malignant=malignant_total,
        num_locations=len(run.space),
        engine_stats=stats,
    )
    return SequentialPairResult(verdict=verdict, sample=sample,
                                batches=batch_index)


@dataclass
class AdaptiveSweepResult:
    """A variance-aware p sweep's outcome.

    ``results[i]`` aggregates the trials point ``i`` actually
    received; ``allocation[i]`` counts its batches.  ``intervals``
    are the final confidence intervals the allocator steered by.
    """

    results: List[GadgetMonteCarloResult]
    intervals: List[BinomialInterval]
    allocation: List[int]
    total_trials: int
    stats: EngineStats = field(repr=False, default_factory=EngineStats)

    def trials_by_point(self) -> List[int]:
        return [result.trials for result in self.results]


def _pick_adaptive_point(trials: List[int], failures: List[int],
                         batches: List[int],
                         min_batches_per_point: int,
                         confidence: float, interval_method: str,
                         boundary: Optional[float]
                         ) -> Tuple[int, List[BinomialInterval]]:
    """Deterministic allocation rule: widest CI first.

    Points below their minimum batch count are served first, in index
    order.  After that the next batch goes to the point with the
    widest interval, except that points whose interval straddles
    ``boundary`` (a failure-rate decision threshold) outrank all
    non-straddling points — trials flow to where the *decision* is
    still open.  Ties break to the lowest index.  The rule reads only
    the accumulated counts, so replaying journaled allocations puts
    the scheduler in the identical state.
    """
    intervals = [binomial_interval(failures[i], trials[i], confidence,
                                   interval_method)
                 for i in range(len(trials))]
    for index in range(len(trials)):
        if batches[index] < min_batches_per_point:
            return index, intervals
    best = 0
    best_key: Tuple[int, float] = (-1, -1.0)
    for index, interval in enumerate(intervals):
        straddles = int(boundary is not None
                        and interval.lower <= boundary <= interval.upper)
        key = (straddles, interval.half_width)
        if key > best_key:
            best, best_key = index, key
    return best, intervals


def adaptive_sweep_p(gadget: Gadget,
                     initial_state: SparseState,
                     evaluator: Callable[[SparseState], bool],
                     p_values: Sequence[float],
                     total_trials: int,
                     *,
                     seed: int,
                     batch_size: int = DEFAULT_CHUNK_SIZE,
                     min_batches_per_point: int = 1,
                     confidence: float = 0.95,
                     interval_method: str = "wilson",
                     boundary: Optional[float] = None,
                     channel: str = "depolarizing",
                     locations: Optional[Sequence[FaultLocation]] = None,
                     workers: int = 1,
                     eval_batch_size: int = 1,
                     memoize: bool = True,
                     cache: Optional[FaultPatternCache] = None,
                     invariant: Optional[
                         Callable[[SparseState], None]] = None,
                     progress: Optional[
                         Callable[[ProgressEvent], None]] = None,
                     checkpoint=None,
                     resume: bool = True,
                     runtime: Optional[RuntimePolicy] = None,
                     ) -> AdaptiveSweepResult:
    """Variance-aware ``sweep_p``: spend trials where CIs are widest.

    Splits ``total_trials`` into whole batches of ``batch_size``
    (any remainder below one batch is left unspent) and deals them
    out under the deterministic rule of :func:`_pick_adaptive_point`.
    Point ``i``'s batches draw from ``chunk_seed_sequence(seed + i,
    batch)`` — the ``sweep_p`` seed-plus-index convention — so however
    many batches a point receives, its fault stream is a bit-identical
    prefix of the fixed-budget run at the same seed, and the whole
    sweep is reproducible for any worker count.

    ``boundary`` (optional) marks a failure-rate decision threshold:
    points whose interval still straddles it outrank all others, so
    the budget concentrates on resolving the crossover — the adaptive
    analogue of scanning for the paper's p_th.

    One :class:`FaultPatternCache` is shared across points (verdicts
    are p-independent).  ``checkpoint``/``resume`` journal every
    allocation; the schedule is a pure function of the journaled
    counts, so a killed sweep resumes into the identical allocation
    sequence and final series.

    ``eval_batch_size > 1`` routes evaluation through the vectorised
    batched simulator (results unchanged).  There is no ``prefetch``
    here: which point samples next depends on the batch that is still
    evaluating, so sampling cannot run ahead of the allocator.
    """
    if cache is None and memoize:
        cache = FaultPatternCache()
    run = _Run(gadget, initial_state, evaluator, locations,
               channel=channel, workers=workers,
               batch_size=eval_batch_size, memoize=memoize, cache=cache,
               progress=progress, invariant=invariant, runtime=runtime)
    if seed is None:
        raise AnalysisError(
            "adaptive_sweep_p requires an explicit seed: the "
            "allocation schedule must be replayable"
        )
    total_trials = _coerce_count(total_trials, "total_trials")
    batch_size = _coerce_positive(batch_size, "batch_size")
    if not p_values:
        raise AnalysisError("adaptive_sweep_p needs at least one p value")
    if min_batches_per_point < 1:
        raise AnalysisError(
            f"min_batches_per_point must be >= 1, got "
            f"{min_batches_per_point}"
        )
    p_values = [float(p) for p in p_values]
    num_points = len(p_values)
    budget_batches = total_trials // batch_size
    if budget_batches < num_points * min_batches_per_point:
        raise AnalysisError(
            f"total_trials={total_trials} is below the minimum "
            f"{num_points * min_batches_per_point} batches of "
            f"{batch_size} ({num_points} points x "
            f"{min_batches_per_point} min batches)"
        )
    run.open("adaptive_sweep", {
        "p_values": p_values,
        "total_trials": total_trials,
        "seed": seed,
        "batch_size": batch_size,
        "min_batches_per_point": int(min_batches_per_point),
        "confidence": float(confidence),
        "interval_method": interval_method,
        "boundary": None if boundary is None else float(boundary),
        "channel": channel,
    }, checkpoint, resume)
    gadget, space = run.gadget, run.space
    store, stats = run.store, run.stats
    models = [NoiseModel.uniform(p, channel=channel) for p in p_values]
    probs = [space.probabilities(model) for model in models]

    trials = [0] * num_points
    failures = [0] * num_points
    batches = [0] * num_points
    histograms: List[Dict[int, int]] = [{} for _ in range(num_points)]
    fbcs: List[Dict[int, int]] = [{} for _ in range(num_points)]
    steps_done = 0

    if store is not None:
        for record in store.load_records("alloc"):
            index = int(record["point"])
            trials[index] += int(record["length"])
            failures[index] += int(record["failures"])
            batches[index] += 1
            _merge_counts(histograms[index], {
                int(k): int(v)
                for k, v in record["histogram"].items()})
            _merge_counts(fbcs[index], {
                int(k): int(v)
                for k, v in record["failures_by_fault_count"].items()})
            steps_done += 1

    with run.interruptible(lambda: {"steps_done": steps_done}):
        while steps_done < budget_batches:
            index, _ = _pick_adaptive_point(
                trials, failures, batches, min_batches_per_point,
                confidence, interval_method, boundary)
            rng = np.random.default_rng(
                chunk_seed_sequence(seed + index, batches[index]))
            sample_start = time.perf_counter()
            batch_histogram: Dict[int, int] = {}
            batch_patterns: Dict[FaultPattern, int] = {}
            sample_fault_chunk(models[index], gadget, space,
                               probs[index], rng, batch_size,
                               batch_histogram, batch_patterns)
            stats.sample_seconds += time.perf_counter() - sample_start
            stats.chunks += 1
            verdict_map = run.verdicts(batch_patterns, batch_size)
            batch_fbc: Dict[int, int] = {}
            batch_failures = _batch_failures(batch_patterns,
                                             verdict_map, batch_fbc)
            trials[index] += batch_size
            failures[index] += batch_failures
            batches[index] += 1
            _merge_counts(histograms[index], batch_histogram)
            _merge_counts(fbcs[index], batch_fbc)
            if store is not None:
                store.append_record("alloc", {
                    "step": steps_done,
                    "point": index,
                    "batch": batches[index] - 1,
                    "length": batch_size,
                    "failures": batch_failures,
                    "histogram": {str(k): v for k, v
                                  in batch_histogram.items()},
                    "failures_by_fault_count": {
                        str(k): v for k, v in batch_fbc.items()},
                })
            steps_done += 1
            if progress is not None:
                progress(ProgressEvent(
                    phase="sample", done=steps_done,
                    total=budget_batches, chunk_index=steps_done - 1,
                    chunks_total=budget_batches,
                    elapsed_seconds=time.perf_counter() - run.start,
                ))

    stats.trials = sum(trials)
    results = [
        GadgetMonteCarloResult(
            p=p_values[i],
            trials=trials[i],
            failures=failures[i],
            failures_by_fault_count=fbcs[i],
            fault_count_histogram=histograms[i],
        )
        for i in range(num_points)
    ]
    intervals = [binomial_interval(failures[i], trials[i], confidence,
                                   interval_method)
                 for i in range(num_points)]
    run.finish({
        "steps": steps_done,
        "trials": sum(trials),
        "allocation": list(batches),
    })
    return AdaptiveSweepResult(
        results=results,
        intervals=intervals,
        allocation=list(batches),
        total_trials=sum(trials),
        stats=stats,
    )
