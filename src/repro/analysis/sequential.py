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

All three run one batch loop, :func:`_drive` (replay the journal,
then sample → judge → journal → fold each batch the runner asks
for); the SPRT runners share :func:`_run_sprt` on top of it.  A
batch's new distinct patterns are judged once each (earlier batches'
verdicts come from the run's cache), in the engine's lane stacks.

**Determinism contract.**  Batch ``b`` of a sequential run draws its
faults from ``chunk_seed_sequence(seed, b, stream_key)`` — exactly the
stream the fixed-budget engine assigns to chunk ``b`` at the same
``(seed, chunk_size)``.  Stopping after ``n`` batches therefore
consumes a bit-identical *prefix* of the fixed run's fault stream: the
decision changes how many trials are drawn, never which ones.  The
adaptive sweep keys point ``i`` by ``seed + i`` (the ``sweep_p``
convention), and its allocation schedule is a pure function of the
accumulated counts, so results are reproducible for any worker count.

**Progress.**  ``progress=`` receives one ``sample``
:class:`~repro.analysis.engine.ProgressEvent` per drawn batch, before
that batch is evaluated: ``done``/``total`` count trials (samples for
the pair runner), including batches replayed from a journal, and
``chunks_total`` is ``ceil(total / batch_size)``.  The engine's
``evaluate`` events for the batch follow it.

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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
    _count_failures,
    _decode_counts,
    _encode_counts,
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


@dataclass
class _Tally:
    """One batch stream and the counts folded from its records.

    Batch ``b`` of the stream draws from ``chunk_seed_sequence(seed,
    b, stream_key)`` through ``draw(rng, length, histogram,
    pattern_counts)``.  A pair stream (``counted=False``) journals no
    per-fault-count tables.
    """

    seed: int
    draw: Callable[[np.random.Generator, int, Dict[int, int],
                    Dict[FaultPattern, int]], None]
    stream_key: Tuple[int, ...] = ()
    counted: bool = True
    trials: int = 0
    failures: int = 0
    batches: int = 0
    histogram: Dict[int, int] = field(default_factory=dict)
    failures_by_count: Dict[int, int] = field(default_factory=dict)

    def fold(self, record: Dict[str, object]) -> None:
        self.trials += int(record["length"])
        self.failures += int(record["failures"])
        self.batches += 1
        if not self.counted:
            return
        for table, key in ((self.histogram, "histogram"),
                           (self.failures_by_count,
                            "failures_by_fault_count")):
            for count, value in _decode_counts(record[key]).items():
                table[count] = table.get(count, 0) + value

    def result(self, p: float, stats: Optional[EngineStats] = None
               ) -> GadgetMonteCarloResult:
        return GadgetMonteCarloResult(
            p=p, trials=self.trials, failures=self.failures,
            failures_by_fault_count=self.failures_by_count,
            fault_count_histogram=self.histogram, engine_stats=stats)


# (record fields ahead of the counts, the stream, the batch length)
_Batch = Tuple[Dict[str, object], _Tally, int]


def _drive(run: _Run, kind: str,
           fold: Callable[[Dict[str, object], bool], None],
           next_batch: Callable[[], Optional[_Batch]],
           total: int, batch_size: int,
           cursor: Callable[[], Dict[str, object]]) -> None:
    """The one sequential batch loop.

    Folds the journaled ``kind`` records in order (``fold(record,
    False)``), then, until ``next_batch()`` returns ``None``: draws
    the batch from its stream, emits the ``sample`` progress event,
    judges the patterns through the engine, journals the record (the
    batch's leading fields, ``length``, ``failures`` and, for counted
    streams, the two per-fault-count tables) and folds it
    (``fold(record, True)``).  ``total`` is the trial budget the
    progress events count against.
    """
    store, stats, progress = run.store, run.stats, run.progress
    consumed = 0
    steps = 0
    if store is not None:
        for record in store.load_records(kind):
            fold(record, False)
            consumed += int(record["length"])
            steps += 1
    with run.interruptible(cursor):
        while (batch := next_batch()) is not None:
            head, tally, length = batch
            rng = np.random.default_rng(chunk_seed_sequence(
                tally.seed, tally.batches, stream_key=tally.stream_key))
            histogram: Dict[int, int] = {}
            patterns: Dict[FaultPattern, int] = {}
            draw_start = time.perf_counter()
            tally.draw(rng, length, histogram, patterns)
            stats.sample_seconds += time.perf_counter() - draw_start
            stats.chunks += 1
            consumed += length
            if progress is not None:
                progress(ProgressEvent(
                    phase="sample", done=consumed, total=total,
                    chunk_index=steps,
                    chunks_total=-(-total // batch_size),
                    elapsed_seconds=time.perf_counter() - run.start,
                ))
            failures, by_count = _count_failures(
                patterns, run.verdicts(patterns, batch_size))
            record = {**head, "length": length, "failures": failures}
            if tally.counted:
                record["histogram"] = _encode_counts(histogram)
                record["failures_by_fault_count"] = \
                    _encode_counts(by_count)
            if store is not None:
                store.append_record(kind, record)
            fold(record, True)
            steps += 1
    stats.trials = consumed


def _run_sprt(run: _Run, tally: _Tally, test, method: str,
              limit: int, batch_size: int,
              on_batch: Optional[Callable[[int, int, int,
                                           Optional[str]], None]],
              claim: str, units: Tuple[str, str]) -> ClaimVerdict:
    """The SPRT core both sequential runners share.

    Draws ``batch_size`` batches (the last one short) until ``test``
    decides or ``limit`` work items are consumed; journals the
    estimator state after every fresh batch and calls ``on_batch``
    after every batch, replayed ones included.  ``units`` names the
    work items and their failures in the cursor and final summary.
    """
    store = run.store

    def fold(record: Dict[str, object], fresh: bool) -> None:
        tally.fold(record)
        test.update(int(record["failures"]), int(record["length"]))
        if fresh and store is not None:
            store.write_state("estimator", {
                "method": method,
                "state": test.state_dict(),
            })
        if on_batch is not None:
            on_batch(tally.batches - 1, tally.trials, tally.failures,
                     test.decision)

    def next_batch() -> Optional[_Batch]:
        if test.decision is not None or tally.trials >= limit:
            return None
        return ({"batch": tally.batches}, tally,
                min(batch_size, limit - tally.trials))

    _drive(run, "batches", fold, next_batch, limit, batch_size,
           lambda: {"batches_done": tally.batches,
                    units[0]: tally.trials})
    verdict = build_claim_verdict(test, claim, method, limit)
    run.finish({
        units[0]: tally.trials,
        units[1]: tally.failures,
        "decision": verdict.decision,
        "batches": tally.batches,
    })
    return verdict


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
        cache: Optional[FaultPatternCache] = None,
        invariant: Optional[Callable[[SparseState], None]] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        on_batch: Optional[Callable[[int, int, int, Optional[str]],
                                    None]] = None,
        checkpoint=None,
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

    ``checkpoint`` journals completed batches and verdicts; a killed
    run re-run on the same journal reaches the identical verdict,
    trial count and fault stream as an uninterrupted one.

    ``batch_size`` is the *sampling* batch, part of the seed contract;
    the engine's stack width changes no verdict, decision or journal.

    ``progress`` receives one ``sample`` event per batch, before the
    batch is evaluated, counting trials against ``max_trials`` (see
    the module docstring).

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
               workers=workers, cache=cache, progress=progress,
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
    }, checkpoint)
    gadget, space = run.gadget, run.space
    probs = space.probabilities(noise)
    tally = _Tally(
        seed, lambda rng, length, histogram, patterns: sample_fault_chunk(
            noise, gadget, space, probs, rng, length, histogram,
            patterns),
        stream_key=tuple(noise.stream_key()))
    verdict = _run_sprt(
        run, tally, test, method, max_trials, batch_size, on_batch,
        claim or (f"{gadget.name} failure_rate <= {p0:g} "
                  f"at p={noise.p_gate:g}"),
        ("trials", "failures"))
    return SequentialResult(verdict=verdict,
                            result=tally.result(noise.p_gate, run.stats),
                            batches=tally.batches)


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
        cache: Optional[FaultPatternCache] = None,
        invariant: Optional[Callable[[SparseState], None]] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        on_batch: Optional[Callable[[int, int, int, Optional[str]],
                                    None]] = None,
        checkpoint=None,
        runtime: Optional[RuntimePolicy] = None,
) -> SequentialPairResult:
    """Certify ``malignant_fraction <= f0`` sequentially.

    The malignant-pair fraction drives the paper's threshold estimate
    (p_th ~ 1 / (fraction * location_pairs)), so deciding it early is
    deciding the threshold early.  Same stream/stopping/resume
    contract as :func:`run_sequential_monte_carlo`, over the uniform
    distinct-location-pair draws of ``run_malignant_pairs`` — and the
    same ``progress`` rule (counted in samples against
    ``max_samples``) and ``on_batch`` streaming hook, which change
    observability only, never verdicts or journals.
    """
    run = _Run(gadget, initial_state, evaluator, locations,
               channel=channel, workers=workers, cache=cache,
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
    }, checkpoint)
    space = run.space
    tally = _Tally(
        seed, lambda rng, length, histogram, patterns: sample_pair_chunk(
            space, rng, length, patterns),
        counted=False)
    verdict = _run_sprt(
        run, tally, test, method, max_samples, batch_size, on_batch,
        claim or f"{run.gadget.name} malignant_fraction <= {f0:g}",
        ("samples", "malignant"))
    sample = MalignantPairSample(
        samples=tally.trials,
        malignant=tally.failures,
        num_locations=len(space),
        engine_stats=run.stats,
    )
    return SequentialPairResult(verdict=verdict, sample=sample,
                                batches=tally.batches)


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
    #: Engine accounting (wall-clock timings included), so it takes no
    #: part in equality, like a Monte-Carlo result's ``engine_stats``.
    stats: EngineStats = field(compare=False, repr=False,
                               default_factory=EngineStats)


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
                     cache: Optional[FaultPatternCache] = None,
                     invariant: Optional[
                         Callable[[SparseState], None]] = None,
                     progress: Optional[
                         Callable[[ProgressEvent], None]] = None,
                     checkpoint=None,
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
    are p-independent).  ``checkpoint`` journals every allocation; the
    schedule is a pure function of the journaled counts, so a killed
    sweep resumes into the identical allocation sequence and final
    series.

    ``progress`` receives one ``sample`` event per batch, before it is
    evaluated, counting trials against the spendable budget (the
    whole batches).
    """
    run = _Run(gadget, initial_state, evaluator, locations,
               channel=channel, workers=workers, cache=cache,
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
    }, checkpoint)
    gadget, space = run.gadget, run.space

    def _point(index: int) -> _Tally:
        model = NoiseModel.uniform(p_values[index], channel=channel)
        probs = space.probabilities(model)
        return _Tally(
            seed + index,
            lambda rng, length, histogram, patterns: sample_fault_chunk(
                model, gadget, space, probs, rng, length, histogram,
                patterns))

    points = [_point(index) for index in range(num_points)]

    def steps() -> int:
        return sum(point.batches for point in points)

    def next_batch() -> Optional[_Batch]:
        if steps() >= budget_batches:
            return None
        index, _ = _pick_adaptive_point(
            [point.trials for point in points],
            [point.failures for point in points],
            [point.batches for point in points],
            min_batches_per_point, confidence, interval_method,
            boundary)
        head = {"step": steps(), "point": index,
                "batch": points[index].batches}
        return head, points[index], batch_size

    _drive(run, "alloc",
           lambda record, fresh: points[int(record["point"])].fold(record),
           next_batch, budget_batches * batch_size, batch_size,
           lambda: {"steps_done": steps()})
    allocation = [point.batches for point in points]
    trials = sum(point.trials for point in points)
    intervals = [binomial_interval(point.failures, point.trials,
                                   confidence, interval_method)
                 for point in points]
    run.finish({
        "steps": steps(),
        "trials": trials,
        "allocation": allocation,
    })
    return AdaptiveSweepResult(
        results=[point.result(p) for point, p in zip(points, p_values)],
        intervals=intervals,
        allocation=list(allocation),
        total_trials=trials,
        stats=run.stats,
    )
