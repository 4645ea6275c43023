"""Parallel fault-injection execution engine.

Every O(p^2) curve and threshold estimate in the reproduction is a
statistical statement over a huge fault-sample space (Shor
quant-ph/9605011, Preskill quant-ph/9712048).  This module is the one
place a fault pattern gets sampled and judged.  It runs the three
workloads — stochastic Monte-Carlo trials, exhaustive single-fault
enumeration and malignant-pair sampling — through a shared three-phase
schedule, and :mod:`repro.analysis.sequential` drives the same phases
batch by batch:

1. **Sample** (parent process, deterministic).  Trials are split into
   fixed-size chunks; chunk ``c`` draws its faults from an RNG seeded
   with ``SeedSequence(seed).spawn(n_chunks)[c]``.  The chunk layout
   depends only on ``(seed, trials, chunk_size)``, never on the worker
   count, so a seeded run is bit-identical for ``workers=1`` and
   ``workers=64``.  Location strike draws and the Pauli picks for the
   struck locations are vectorised (one array draw each per chunk),
   in the order a per-trial loop would make them.
2. **Deduplicate.**  Each sampled fault set is canonicalised to a
   sorted ``((pauli, after_op), ...)`` tuple.  At low p most non-empty
   samples are single-fault repeats, so the number of *distinct*
   patterns is far below the number of trials; verdicts are reused
   through a :class:`FaultPatternCache` instead of re-running the
   sparse simulator.  Deduplication happens in the parent, so workers
   never simulate the same pattern twice regardless of scheduling.
3. **Evaluate** (worker slots).  Only cache-missing patterns are
   simulated, fanned out across forked worker slots in chunks.  There
   is one evaluation path: a chunk's patterns are cut into stacks of
   :func:`stack_width` lanes and each stack is one
   :func:`~repro.simulators.batched.evaluate_fault_patterns_batched`
   simulation.  Verdicts are independent booleans, so neither the
   width nor the evaluation order can affect results.
   :func:`evaluate_fault_pattern`, a fresh serial sparse simulation,
   is kept as the reference the stack is checked against; no engine
   path calls it.

The evaluate phase runs under the resilience layer of
:mod:`repro.runtime`:

* pool scheduling goes through a :class:`~repro.runtime.Supervisor`
  (per-chunk deadlines, per-slot kill and respawn, bounded retry
  with backoff, in-parent quarantine of chunks that keep failing —
  recorded in :class:`EngineStats`, never dropped);
* each stack is one stacked sparse simulation, with a retry-once
  shield per pattern on invariant ``VerificationError``; a
  ``MemoryError`` or ``SimulationError`` becomes a typed
  :class:`~repro.exceptions.RuntimeIntegrityError`, which in a pool
  the supervisor retries like any other failed chunk;
* ``checkpoint=`` journals completed evaluation chunks through a
  :class:`~repro.runtime.CheckpointStore`, and a re-run with the same
  store replays them so an interrupted campaign finishes
  bit-identically to an uninterrupted one (verdicts depend only on
  the canonical pattern, and the sample phase is already
  deterministic per seed).

Caching assumes evaluators are *phase-insensitive*: two fault lists
with the same canonical pattern can differ by a global phase (Paulis
inserted at the same point in either order), which every shipped
evaluator — overlap magnitudes and basis-term predicates — ignores.

The platform must support ``fork`` for ``workers > 1`` (fork lets
workers inherit the gadget/evaluator closures without pickling); where
it is unavailable the engine transparently degrades to in-process
evaluation with identical results.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import multiprocessing
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.circuits.pauli import PauliString
from repro.exceptions import (
    AnalysisError,
    RuntimeIntegrityError,
    SimulationError,
    VerificationError,
)
from repro.ft.gadget import (
    Gadget,
    apply_circuit_with_faults,
    maybe_optimize,
)
from repro.noise.locations import FaultLocation, FaultSpace
from repro.noise.model import NoiseModel
from repro.runtime.chaos import Fault as ChaosFault
from repro.runtime.chaos import raise_injected, strike
from repro.runtime.checkpoint import CheckpointStore, as_store
from repro.runtime.policy import RuntimePolicy, resolve_policy
from repro.runtime.supervisor import Supervisor
from repro.simulators.batched import evaluate_fault_patterns_batched
from repro.simulators.sparse import SparseState

#: One concrete fault: (pauli, after_op) exactly as the injector takes it.
Fault = Tuple[PauliString, int]
#: Canonicalised fault set (sorted tuple of faults) — the cache key.
FaultPattern = Tuple[Fault, ...]

#: Default number of trials sampled per RNG chunk.  Part of the
#: determinism contract: results depend on (seed, trials, chunk_size).
DEFAULT_CHUNK_SIZE = 256

#: Generous default bound on memoised verdicts; far above any shipped
#: workload, but finite so a runaway campaign cannot OOM the parent.
DEFAULT_CACHE_MAX_ENTRIES = 1 << 20

#: Ceiling on trials/samples per run.  Far beyond anything the sparse
#: simulator could evaluate in a lifetime; its real job is rejecting
#: corrupted inputs (e.g. an overflowed or negative count fed from a
#: config file) before they reach the multiprocessing machinery.
MAX_WORK_ITEMS = 1 << 48

#: Initial-state terms one lane stack may hold (see :func:`stack_width`).
STACK_TERMS = 1 << 16
#: Default ceiling on the lanes of one stack (``batch_size=``).
MAX_LANES = 64

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

# ---------------------------------------------------------------------------
# Input validation (shared by every public entry point)
# ---------------------------------------------------------------------------

def _coerce_count(value, name: str, minimum: int = 0,
                  maximum: int = MAX_WORK_ITEMS) -> int:
    """Strictly validate a work-item count (trials/samples)."""
    if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)):
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        else:
            raise AnalysisError(
                f"{name} must be an integer, got {value!r} "
                f"({type(value).__name__})"
            )
    value = int(value)
    if value < minimum:
        bound = "non-negative" if minimum == 0 else f">= {minimum}"
        raise AnalysisError(f"{name} must be {bound}, got {value}")
    if value > maximum:
        raise AnalysisError(
            f"{name}={value} exceeds the engine's {maximum} "
            f"work-item ceiling; this is almost certainly a "
            f"corrupted or overflowed count"
        )
    return value


def _coerce_positive(value, name: str) -> int:
    """Strictly validate a positive integer option.

    ``chunk_size`` is part of the determinism contract; ``workers``
    and ``batch_size`` are not (results are bit-identical for every
    value), but a silent rounding of any of them would hide a
    corrupted config.
    """
    if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)):
        raise AnalysisError(
            f"{name} must be a positive integer, got {value!r} "
            f"({type(value).__name__})"
        )
    value = int(value)
    if value < 1:
        raise AnalysisError(
            f"{name} must be >= 1, got {value}"
        )
    return value


def stack_width(num_terms: int, ceiling: int = MAX_LANES) -> int:
    """Lanes per stack for an initial state of ``num_terms`` terms: as
    many as keep the stacked register within :data:`STACK_TERMS` terms,
    at least one and at most ``ceiling``.  Verdicts never depend on it.
    """
    return min(ceiling, max(1, STACK_TERMS // num_terms))


def _fault_sort_key(fault: Fault) -> Tuple[int, Tuple[int, ...],
                                           Tuple[int, ...], int]:
    pauli, after_op = fault
    return (after_op, pauli.x_bits, pauli.z_bits, pauli.phase)


def canonical_pattern(faults: Sequence[Fault]) -> FaultPattern:
    """Order-independent canonical form of a sampled fault set."""
    return tuple(sorted(faults, key=_fault_sort_key))


def evaluate_fault_pattern(gadget: Gadget, initial_state: SparseState,
                           evaluator: Callable[[SparseState], bool],
                           faults: Sequence[Fault],
                           invariant: Optional[
                               Callable[[SparseState], None]] = None
                           ) -> bool:
    """Fresh (uncached) serial simulation of one fault pattern.

    The reference oracle for the engine's lane stacks: every verdict
    the engine caches must equal this on the same canonical pattern
    (``tests/simulators/test_batched_equivalence.py``).

    ``invariant`` is the differential-verification hook: when given,
    it is called with the final state of every fresh simulation and
    must raise :class:`~repro.exceptions.VerificationError` on
    violation (see :func:`repro.verify.norm_invariant` for ready-made
    checks).  Cached verdicts skip the invariant — it certifies the
    simulator runs, which is exactly the set of states that were
    actually computed.
    """
    state = initial_state.copy()
    apply_circuit_with_faults(state, gadget.circuit, list(faults))
    if invariant is not None:
        invariant(state)
    return bool(evaluator(state))


class FaultPatternCache:
    """Memoised verdicts keyed by canonical fault pattern.

    Verdicts depend only on the fault pattern (the gadget, input state
    and evaluator are fixed per cache), not on the error rate p, so
    one cache can be shared across an entire p sweep.

    The cache is LRU-bounded: ``max_entries`` (default generous —
    :data:`DEFAULT_CACHE_MAX_ENTRIES`) caps memory on unbounded
    campaigns, evicting the least-recently-used verdict and counting
    it in :attr:`evictions`.  Eviction is invisible to correctness —
    an evicted pattern is simply re-simulated on next request — and
    surfaces in :class:`EngineStats` so capped runs are diagnosable.
    ``max_entries=None`` disables the bound.
    """

    def __init__(self, max_entries: Optional[int]
                 = DEFAULT_CACHE_MAX_ENTRIES) -> None:
        if max_entries is not None:
            if isinstance(max_entries, bool) or not isinstance(
                    max_entries, (int, np.integer)):
                raise AnalysisError(
                    f"max_entries must be an integer or None, got "
                    f"{max_entries!r}"
                )
            max_entries = int(max_entries)
            if max_entries < 1:
                raise AnalysisError(
                    f"max_entries must be >= 1, got {max_entries}"
                )
        self.max_entries = max_entries
        self._verdicts: "OrderedDict[FaultPattern, bool]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._verdicts)

    def contains(self, pattern: FaultPattern) -> bool:
        return pattern in self._verdicts

    def get(self, pattern: FaultPattern) -> Optional[bool]:
        verdict = self._verdicts.get(pattern)
        if verdict is not None:
            self._verdicts.move_to_end(pattern)
        return verdict

    def store(self, pattern: FaultPattern, verdict: bool) -> None:
        self._verdicts[pattern] = bool(verdict)
        self._verdicts.move_to_end(pattern)
        if self.max_entries is not None:
            while len(self._verdicts) > self.max_entries:
                self._verdicts.popitem(last=False)
                self.evictions += 1

    def items(self):
        """(pattern, verdict) pairs, least-recently-used first."""
        return self._verdicts.items()

    def clear(self) -> None:
        self._verdicts.clear()
        self.evictions = 0


@dataclass(frozen=True)
class ChunkTiming:
    """Wall-clock record for one evaluation chunk."""

    index: int
    patterns: int
    seconds: float
    worker_pid: int


@dataclass(frozen=True)
class ProgressEvent:
    """Passed to the ``progress`` callback after each chunk completes.

    ``phase`` is 'sample' or 'evaluate'; ``done``/``total`` count work
    items (trials for sampling, patterns for evaluation).
    """

    phase: str
    done: int
    total: int
    chunk_index: int
    chunks_total: int
    elapsed_seconds: float


@dataclass
class EngineStats:
    """Per-run instrumentation surfaced through benchmark reports."""

    trials: int = 0
    requests: int = 0       # verdict lookups (non-empty trials/samples)
    evaluations: int = 0    # fresh verdicts (patterns simulated)
    cache_hits: int = 0
    distinct_patterns: int = 0
    chunks: int = 0
    workers: int = 1
    sample_seconds: float = 0.0
    eval_seconds: float = 0.0
    total_seconds: float = 0.0
    worker_busy_seconds: float = 0.0
    chunk_timings: List[ChunkTiming] = field(default_factory=list)
    # -- resilience accounting (repro.runtime) ----------------------
    retries: int = 0
    hung_chunks: int = 0           # chunks lost to a dead/overdue slot
    worker_errors: int = 0
    pool_restarts: int = 0         # slots forked to replace one
    quarantined_chunks: int = 0
    invariant_retries: int = 0
    cache_evictions: int = 0
    resumed_verdicts: int = 0
    batched_batches: int = 0       # stacked simulations run

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def trials_per_second(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.trials / self.total_seconds

    @property
    def worker_utilization(self) -> float:
        """Busy time across workers / (evaluation wall time * workers)."""
        denominator = self.eval_seconds * max(self.workers, 1)
        if denominator <= 0:
            return 0.0
        return min(1.0, self.worker_busy_seconds / denominator)

    def absorb(self, other: "EngineStats") -> None:
        """Fold another run's stats into this one (multi-phase
        reports: exhaustive + pair sampling share one block).

        Each field folds by its type: numbers add, lists extend —
        except ``workers``, the larger pool.
        """
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if spec.name == "workers":
                self.workers = max(mine, theirs)
            elif isinstance(mine, list):
                mine.extend(theirs)
            else:
                setattr(self, spec.name, mine + theirs)

    def summary_lines(self) -> List[str]:
        """Human-readable block for benchmark reports."""
        lines = [
            f"engine: {self.trials} trials in {self.total_seconds:.2f}s "
            f"({self.trials_per_second:.0f} trials/s), "
            f"workers={self.workers}, chunks={self.chunks}",
            f"  cache: {self.cache_hits}/{self.requests} hits "
            f"({100 * self.cache_hit_rate:.1f}%), "
            f"{self.evaluations} fresh verdicts from "
            f"{self.batched_batches} stacked simulations over "
            f"{self.distinct_patterns} distinct patterns",
            f"  timing: sample {self.sample_seconds:.2f}s, "
            f"evaluate {self.eval_seconds:.2f}s, "
            f"worker utilization {100 * self.worker_utilization:.0f}%",
        ]
        incidents = (self.retries or self.hung_chunks
                     or self.worker_errors or self.pool_restarts
                     or self.quarantined_chunks or self.invariant_retries
                     or self.cache_evictions or self.resumed_verdicts)
        if incidents:
            lines.append(
                f"  resilience: {self.retries} retries, "
                f"{self.hung_chunks} lost to dead or overdue slots, "
                f"{self.worker_errors} worker errors, "
                f"{self.pool_restarts} slots replaced, "
                f"{self.quarantined_chunks} quarantined; "
                f"{self.invariant_retries} invariant retries, "
                f"{self.resumed_verdicts} resumed verdicts, "
                f"{self.cache_evictions} cache evictions"
            )
        return lines

    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot for job metadata and reports.

        The service records this alongside each verdict so a cache hit
        (``evaluations == 0``) is distinguishable from a recompute.
        ``chunk_timings`` is left out: it is per-chunk detail that
        grows with the run, not a summary.
        """
        return {spec.name: getattr(self, spec.name)
                for spec in fields(self) if spec.name != "chunk_timings"}


@dataclass
class ExhaustiveSurvey:
    """Result of an engine-driven exhaustive single-fault sweep."""

    failures: List[Tuple[FaultLocation, PauliString]]
    checked: int
    stats: EngineStats


class _EvalContext:
    """Everything a worker needs to turn a pattern into a verdict.

    Carries the runtime policy's fault plan into forked workers (by
    inheritance — nothing crosses the pipe).
    """

    def __init__(self, gadget: Gadget, initial_state: SparseState,
                 evaluator: Callable[[SparseState], bool],
                 invariant: Optional[Callable[[SparseState], None]]
                 = None,
                 policy: Optional[RuntimePolicy] = None,
                 lanes: int = 1) -> None:
        self.gadget = gadget
        self.initial_state = initial_state
        self.evaluator = evaluator
        self.invariant = invariant
        self.policy = resolve_policy(policy)
        self.lanes = lanes

    def judge_stack(self, stack: Sequence[FaultPattern],
                    resilience: Dict[str, int],
                    faults: Sequence[ChaosFault]) -> List[bool]:
        """One stack's verdicts from one stacked sparse simulation.

        ``faults`` are the engine faults matched for this chunk
        attempt: ``oom``/``simulation_error`` strike the stack, and a
        ``MemoryError`` or ``SimulationError`` raised while building
        or running it becomes :class:`~repro.exceptions.
        RuntimeIntegrityError` chained to its cause.  The invariant
        keeps a retry-once shield per pattern: a lane whose first
        check raises ``VerificationError`` (or is struck by
        ``verification_error``) is re-simulated alone as a one-lane
        stack and checked again, counted in
        ``resilience["invariant_retries"]``, before a violation is
        trusted as a real divergence.
        """
        shielded: List[int] = []
        try:
            raise_injected(faults, "oom", "simulation_error")
            verdicts = self._simulate(
                stack, resilience, self._shield(shielded, faults))
            for lane in shielded:
                resilience["invariant_retries"] += 1
                verdicts[lane] = self._simulate(
                    stack[lane:lane + 1], resilience, self.invariant)[0]
        except (MemoryError, SimulationError) as exc:
            raise RuntimeIntegrityError(
                f"the sparse simulation of a stack of {len(stack)} "
                f"fault patterns failed"
            ) from exc
        return verdicts

    def _simulate(self, stack: Sequence[FaultPattern],
                  resilience: Dict[str, int],
                  invariant: Optional[Callable[[SparseState], None]]
                  ) -> List[bool]:
        resilience["batched_batches"] += 1
        return evaluate_fault_patterns_batched(
            self.gadget, self.initial_state, self.evaluator, stack,
            invariant=invariant)

    def _shield(self, shielded: List[int],
                faults: Sequence[ChaosFault]
                ) -> Optional[Callable[[SparseState], None]]:
        """The invariant for a stack's first run: records the lanes
        that fail it in ``shielded`` instead of raising."""
        if self.invariant is None:
            return None
        lanes = itertools.count()

        def check(state: SparseState) -> None:
            lane = next(lanes)
            try:
                raise_injected(faults, "verification_error")
                self.invariant(state)
            except VerificationError:
                shielded.append(lane)

        return check


#: Worker result: (index, verdicts, seconds, pid, resilience counters).
_ChunkResult = Tuple[int, List[bool], float, int, Dict[str, int]]


def _evaluate_chunk(context: _EvalContext, index: int,
                    patterns: Sequence[FaultPattern], attempt: int,
                    in_worker: bool) -> _ChunkResult:
    """Evaluate one chunk under the context's runtime policy.

    The chunk's patterns are cut into stacks of ``context.lanes``,
    each judged by :meth:`_EvalContext.judge_stack`.
    """
    start = time.perf_counter()
    faults: List[ChaosFault] = []
    if context.policy.chaos is not None:
        # Fault attempts count from 1, the supervisor's from 0.
        faults = context.policy.chaos.match(
            "engine", "pool" if in_worker else "parent", index,
            attempt + 1)
        strike(faults)
    resilience = {"invariant_retries": 0, "batched_batches": 0}
    verdicts: List[bool] = []
    for lo in range(0, len(patterns), context.lanes):
        verdicts.extend(context.judge_stack(
            patterns[lo:lo + context.lanes], resilience, faults))
    return (index, verdicts, time.perf_counter() - start, os.getpid(),
            resilience)


def _chunk_slices(total: int, chunk_size: int) -> List[Tuple[int, int]]:
    return [(start, min(start + chunk_size, total))
            for start in range(0, total, chunk_size)]


def _evaluate_patterns(context: _EvalContext,
                       patterns: List[FaultPattern],
                       workers: int,
                       chunk_size: int,
                       stats: EngineStats,
                       progress: Optional[Callable[[ProgressEvent], None]],
                       journal: Optional[CheckpointStore] = None,
                       ) -> List[bool]:
    """Verdicts for ``patterns``, fanned out when ``workers > 1``.

    Evaluation chunking never affects results (verdicts are
    independent), only scheduling granularity.  In pool mode the fan-
    out is supervised (deadlines, retries, quarantine — see
    :mod:`repro.runtime.supervisor`); completed chunks are journaled
    to ``journal`` *before* the progress callback fires, so an
    interrupt raised from ``progress`` never loses a finished chunk.
    """
    verdicts: List[bool] = [False] * len(patterns)
    if not patterns:
        return verdicts
    slices = _chunk_slices(len(patterns), chunk_size)
    payloads = [patterns[lo:hi] for lo, hi in slices]
    pool_workers = min(workers, len(payloads))
    use_pool = pool_workers > 1 and _HAS_FORK
    stats.workers = max(stats.workers, pool_workers if use_pool else 1)
    start = time.perf_counter()
    done_patterns = 0

    def _record(index: int, chunk_verdicts: List[bool],
                seconds: float, pid: int,
                resilience: Dict[str, int]) -> None:
        nonlocal done_patterns
        lo, hi = slices[index]
        verdicts[lo:hi] = chunk_verdicts
        done_patterns += hi - lo
        stats.worker_busy_seconds += seconds
        stats.chunk_timings.append(ChunkTiming(
            index=index, patterns=hi - lo, seconds=seconds,
            worker_pid=pid,
        ))
        for name, count in resilience.items():
            setattr(stats, name, getattr(stats, name) + count)
        if journal is not None:
            journal.append_verdicts(
                zip(patterns[lo:hi], chunk_verdicts))
        if progress is not None:
            progress(ProgressEvent(
                phase="evaluate", done=done_patterns,
                total=len(patterns), chunk_index=index,
                chunks_total=len(payloads),
                elapsed_seconds=time.perf_counter() - start,
            ))

    if use_pool:
        # The slots fork inside ``run``: the context and the payloads
        # reach them by inheritance, so only (index, attempt) crosses
        # the pipe.
        report = Supervisor(context.policy.supervisor).run(
            num_tasks=len(payloads),
            make_task=lambda index, attempt: (index, attempt),
            worker_fn=lambda task: _evaluate_chunk(
                context, task[0], payloads[task[0]], task[1],
                in_worker=True),
            workers=pool_workers,
            on_result=lambda index, result: _record(*result),
            local_eval=lambda index: _evaluate_chunk(
                context, index, payloads[index],
                attempt=context.policy.supervisor.max_retries + 1,
                in_worker=False),
        )
        stats.retries += report.retries
        stats.hung_chunks += report.expired_chunks
        stats.worker_errors += report.worker_errors
        stats.pool_restarts += report.pool_restarts
        stats.quarantined_chunks += len(report.quarantined)
    else:
        for index, chunk_patterns in enumerate(payloads):
            result = _evaluate_chunk(context, index, chunk_patterns,
                                     attempt=0, in_worker=False)
            _record(*result)
    stats.eval_seconds += time.perf_counter() - start
    return verdicts


def _resolve_verdicts(context: _EvalContext,
                      pattern_counts: Dict[FaultPattern, int],
                      cache: FaultPatternCache,
                      workers: int,
                      chunk_size: int,
                      stats: EngineStats,
                      progress: Optional[Callable[[ProgressEvent], None]],
                      journal: Optional[CheckpointStore] = None,
                      ) -> Dict[FaultPattern, bool]:
    """Map each distinct pattern to its verdict.

    Each distinct pattern is simulated at most once, and not at all
    when ``cache`` already knows it.
    """
    requests = sum(pattern_counts.values())
    stats.requests += requests
    evictions_before = cache.evictions
    verdict_map: Dict[FaultPattern, bool] = {}
    missing: List[FaultPattern] = []
    for pattern in pattern_counts:
        verdict = cache.get(pattern)
        if verdict is None:
            missing.append(pattern)
        else:
            verdict_map[pattern] = verdict
    verdicts = _evaluate_patterns(context, missing, workers, chunk_size,
                                  stats, progress, journal=journal)
    for pattern, verdict in zip(missing, verdicts):
        verdict_map[pattern] = verdict
        cache.store(pattern, verdict)
    stats.evaluations += len(missing)
    stats.cache_hits += requests - len(missing)
    stats.cache_evictions += cache.evictions - evictions_before
    return verdict_map


def _spawn_chunks(seed: Optional[int], total: int, chunk_size: int,
                  stream_key: Sequence[int] = ()
                  ) -> List[Tuple[int, np.random.SeedSequence]]:
    """(chunk_length, child seed) pairs — worker-count independent.

    ``stream_key`` is the noise model's ``stream_key()``: empty for the
    baseline models (the root stays ``SeedSequence(seed)``, preserving
    every historical seeded stream byte-for-byte) and a
    fingerprint-derived spawn key for structured models, so two
    different models never share a fault stream at the same seed.
    """
    slices = _chunk_slices(total, chunk_size)
    if stream_key:
        root = np.random.SeedSequence(seed, spawn_key=tuple(stream_key))
    else:
        root = np.random.SeedSequence(seed)
    children = root.spawn(len(slices))
    return [(hi - lo, child) for (lo, hi), child in zip(slices, children)]


def chunk_seed_sequence(seed: int, chunk_index: int,
                        stream_key: Sequence[int] = ()
                        ) -> np.random.SeedSequence:
    """The SeedSequence :func:`_spawn_chunks` assigns to chunk ``i`` —
    computed directly, without knowing the total trial count.

    ``SeedSequence(seed).spawn(n)[i]`` equals
    ``SeedSequence(seed, spawn_key=(i,))`` for every explicit seed
    (spawning appends the child index to the spawn key), so a
    sequential run that decides its stopping time on the fly draws the
    *same* fault stream, chunk for chunk, as a fixed-budget run at the
    same ``(seed, chunk_size)``.  That prefix property is what makes
    early stopping bias-free at the sampling level and what the
    resume-invariance tests pin down.

    Requires an explicit seed: with ``seed=None`` each SeedSequence
    construction draws fresh OS entropy and the equivalence (and any
    notion of resuming) is meaningless.
    """
    if seed is None:
        raise AnalysisError(
            "sequential sampling requires an explicit seed: chunk "
            "streams are addressed by (seed, chunk_index) and cannot "
            "be reproduced from OS entropy"
        )
    key = tuple(int(part) for part in stream_key) + (int(chunk_index),)
    return np.random.SeedSequence(seed, spawn_key=key)


def sample_fault_chunk(noise: NoiseModel, gadget: Gadget,
                       space: FaultSpace,
                       probs: np.ndarray,
                       rng: np.random.Generator,
                       length: int,
                       histogram: Dict[int, int],
                       pattern_counts: Dict[FaultPattern, int]) -> None:
    """Sample ``length`` Monte-Carlo trials from one chunk RNG.

    ``probs`` is ``space.probabilities(noise)``, computed once per
    run.  Folds fault-count tallies into ``histogram`` and canonical
    patterns into ``pattern_counts`` in place, both in the insertion
    order a per-trial loop gives.  This is the exact draw sequence the
    historical ``run_monte_carlo`` loop used (structured per-trial
    path, vectorised iid fast path) — extracted so the sequential
    runner can consume the same streams batch by batch.  The
    seeded-stream stability tests and ``tests/analysis/
    test_strike_path.py`` pin the draw order; do not reorder RNG calls
    here.
    """
    if noise.structured:
        # Structured models own their sampling (correlations, weights,
        # time dependence live in the model); the vectorised iid fast
        # path below would miss all of that.
        for _ in range(length):
            sampled = noise.sample_faults(gadget.circuit, rng,
                                          space.locations)
            faults = [(fault.pauli, fault.after_op)
                      for fault in sampled]
            count = len(faults)
            histogram[count] = histogram.get(count, 0) + 1
            if count:
                key = canonical_pattern(faults)
                pattern_counts[key] = pattern_counts.get(key, 0) + 1
        return
    # iid: one strike matrix, then one Pauli draw per struck location
    # in row-major order.  An array ``high`` draws exactly as the
    # per-strike scalar calls did (tests pin this).
    choices, after_ops = space.choices, space.after_ops
    widths = space.widths
    strikes = rng.random((length, len(space)))
    rows, cols = np.nonzero((strikes < probs) & (widths > 0))
    picks = rng.integers(0, widths[cols]) if cols.size else cols
    counts = np.bincount(rows, minlength=length)
    values, first, totals = np.unique(counts, return_index=True,
                                      return_counts=True)
    for order in np.argsort(first):  # first-seen order, as row by row
        count = int(values[order])
        histogram[count] = histogram.get(count, 0) + int(totals[order])
    cols, picks = cols.tolist(), picks.tolist()
    ends = np.cumsum(counts[counts > 0]).tolist()
    start = 0
    for end in ends:
        key = canonical_pattern([
            (choices[col][pick], after_ops[col])
            for col, pick in zip(cols[start:end], picks[start:end])])
        pattern_counts[key] = pattern_counts.get(key, 0) + 1
        start = end


def sample_pair_chunk(space: FaultSpace,
                      rng: np.random.Generator,
                      length: int,
                      pattern_counts: Dict[FaultPattern, int]) -> None:
    """Sample ``length`` uniform distinct location pairs from one chunk
    RNG, folding canonical two-fault patterns into ``pattern_counts``.

    Extracted from ``run_malignant_pairs`` unchanged (same draw order)
    so sequential pair certification shares its fault stream.
    """
    choices, after_ops = space.choices, space.after_ops
    num_locations = len(space)
    for _ in range(length):
        i = int(rng.integers(0, num_locations))
        j = int(rng.integers(0, num_locations - 1))
        if j >= i:
            j += 1
        faults: List[Fault] = []
        for loc_index in (i, j):
            loc_choices = choices[loc_index]
            pauli = loc_choices[int(rng.integers(0, len(loc_choices)))]
            faults.append((pauli, after_ops[loc_index]))
        key = canonical_pattern(faults)
        pattern_counts[key] = pattern_counts.get(key, 0) + 1


def _count_failures(pattern_counts: Dict[FaultPattern, int],
                    verdict_map: Dict[FaultPattern, bool]
                    ) -> Tuple[int, Dict[int, int]]:
    """``(failures, failures_by_fault_count)`` over judged patterns."""
    failures = 0
    by_count: Dict[int, int] = {}
    for pattern, multiplicity in pattern_counts.items():
        if not verdict_map[pattern]:
            failures += multiplicity
            by_count[len(pattern)] = \
                by_count.get(len(pattern), 0) + multiplicity
    return failures, by_count


def _encode_counts(counts: Dict[int, int]) -> Dict[str, int]:
    """A per-fault-count table in its journal form (JSON keys)."""
    return {str(count): value for count, value in counts.items()}


def _decode_counts(payload: Dict[str, int]) -> Dict[int, int]:
    return {int(count): int(value) for count, value in payload.items()}


def _apply_optimizer(gadget: Gadget, optimize,
                     locations) -> Tuple[Gadget, Optional[str]]:
    """Resolve the ``optimize=`` argument for a gadget workload.

    Returns the (possibly rewritten) gadget and the optimizer marker
    to stamp into the checkpoint fingerprint, or ``(gadget, None)``
    when optimization is off.  Explicit ``locations`` are refused:
    fault locations index into the original circuit's operation list,
    so pairing them with a rewritten circuit would silently misplace
    every fault.
    """
    if optimize is True and locations is not None:
        raise AnalysisError(
            "optimize= cannot be combined with explicit locations=: "
            "fault locations reference operation indices of the "
            "original circuit; pass locations enumerated from the "
            "optimized gadget instead"
        )
    gadget = maybe_optimize(gadget, optimize)
    if not optimize:
        return gadget, None
    from repro.optimize.pipeline import MARKER

    return gadget, MARKER


def _location_key(locations: Sequence[FaultLocation]) -> str:
    return repr([(location.kind, location.qubits, location.after_op)
                 for location in locations])


def _location_fields(gadget: Gadget,
                     given: Optional[Sequence[FaultLocation]],
                     count: int) -> Dict[str, object]:
    """The checkpoint fingerprint's location fields.

    The location ``count``, plus a ``location_digest`` marker when the
    caller's ``locations=`` (``given``; ``None`` means the defaults)
    differ from :meth:`Gadget.fault_locations`: two location lists of
    equal length must never share a journal, while a default-location
    fingerprint stays byte-identical to what older journals recorded.
    """
    fields: Dict[str, object] = {"locations": count}
    if given is not None:
        key = _location_key(given)
        if key != _location_key(gadget.fault_locations()):
            fields["location_digest"] = hashlib.sha256(
                key.encode()).hexdigest()
    return fields


class _Run:
    """The set-up every sampling entry point shares.

    Construction resolves the inputs: the ``optimize=`` rewrite, the
    run's :class:`~repro.noise.locations.FaultSpace` (the gadget's
    default locations unless given, with the noise model's channel or
    ``channel``), the ``workers`` option, the verdict cache (a fresh
    one unless the caller shares one) and the evaluation context with
    its :func:`stack_width` under the ``batch_size`` ceiling.
    :meth:`open` then stamps the run's checkpoint fingerprint and
    opens its journal.  Entry points check their own arguments between
    the two steps, so a refused call never touches an existing journal.
    """

    def __init__(self, gadget: Gadget, initial_state: SparseState,
                 evaluator: Callable[[SparseState], bool],
                 locations: Optional[Sequence[FaultLocation]], *,
                 noise: Optional[NoiseModel] = None,
                 channel: str = "depolarizing",
                 optimize=False,
                 workers: int = 1,
                 batch_size: int = MAX_LANES,
                 cache: Optional[FaultPatternCache] = None,
                 progress: Optional[Callable[[ProgressEvent], None]]
                 = None,
                 invariant: Optional[Callable[[SparseState], None]]
                 = None,
                 runtime: Optional[RuntimePolicy] = None) -> None:
        self.start = time.perf_counter()
        if noise is not None and not noise.samplable:
            raise AnalysisError(
                f"{type(noise).__name__} has no stochastic Pauli "
                "unravelling and cannot feed the sampling engine; "
                "compose it exactly with repro.noise.injection."
                "run_with_coherent_noise or sample its Pauli twirl"
            )
        gadget, self.optimizer = _apply_optimizer(gadget, optimize,
                                                  locations)
        self.given_locations = locations
        self.space = FaultSpace.build(
            gadget.circuit,
            gadget.fault_locations() if locations is None else locations,
            noise.channel if noise is not None else channel)
        self.noise = noise
        self.workers = _coerce_positive(workers, "workers")
        self.cache = FaultPatternCache() if cache is None else cache
        self.owns_cache = cache is None
        #: The run's first and all its looked-up patterns, kept only
        #: where the cache cannot tell (see :meth:`_count_new`).
        self.first_lookup: Optional[Dict[FaultPattern, int]] = None
        self.looked_up: Optional[Set[FaultPattern]] = None
        self.progress = progress
        self.context = _EvalContext(
            gadget, initial_state, evaluator, invariant=invariant,
            policy=runtime,
            lanes=stack_width(initial_state.num_terms, _coerce_positive(
                batch_size, "batch_size")))
        self.stats = EngineStats()
        self.store: Optional[CheckpointStore] = None

    @property
    def gadget(self) -> Gadget:
        return self.context.gadget

    def open(self, workload: str, fields: Dict[str, object],
             checkpoint) -> None:
        """Fingerprint the run and open its ``checkpoint=`` journal.

        The fingerprint is the workload's ``fields`` framed by the
        gadget identity and its location fields (see
        :func:`_location_fields`), then the noise model's identity and
        the markers.  A marker is stamped only when it applies, so the
        fingerprint of a baseline-noise, unoptimized run stays
        byte-identical to what older journals recorded, while a
        journal never silently resumes under a different structured
        model or optimizer.  The stack width is not part of it, so a
        journal resumes at any width, including older journals of
        multi-lane runs, which carry a retired ``eval_path`` marker.

        An existing journal is always resumed: its verdicts are
        replayed into the run's cache after the fingerprint check.  A
        store without a journal is cleared and given a new header; a
        caller wanting a fresh run calls
        :meth:`~repro.runtime.CheckpointStore.clear` first.
        """
        store = as_store(checkpoint)
        if store is None:
            return
        fingerprint: Dict[str, object] = {
            "workload": workload,
            "gadget": self.gadget.name,
            **_location_fields(self.gadget, self.given_locations,
                               len(self.space)),
            **fields,
        }
        noise = self.noise
        if noise is not None:
            fingerprint.update(p_gate=float(noise.p_gate),
                               p_input=float(noise.p_input),
                               p_delay=float(noise.p_delay),
                               channel=noise.channel)
            if noise.structured:
                fingerprint["model"] = repr(noise.fingerprint())
        if self.optimizer is not None:
            fingerprint["optimizer"] = self.optimizer
        # Only the exhaustive sweep is unseeded; it is deterministic.
        if "seed" in fingerprint and fingerprint["seed"] is None:
            raise AnalysisError(
                "checkpointing requires an explicit seed: an unseeded "
                "run draws OS entropy and cannot be resumed "
                "bit-identically"
            )
        if store.exists():
            store.check_fingerprint(
                fingerprint, retired={"eval_path": "batched"})
            entries = store.load_verdicts()
            for pattern, verdict in entries:
                self.cache.store(pattern, verdict)
            self.stats.resumed_verdicts = len(entries)
        else:
            store.clear()
            store.write_header(fingerprint)
        self.store = store

    @contextlib.contextmanager
    def interruptible(self, cursor: Callable[[], Dict[str, object]]):
        """Mark a ``KeyboardInterrupt`` in the journal's cursor.

        Completed chunks are already journaled; the marker lets the
        resume path (and the operator) see that the stop was clean.
        """
        try:
            yield
        except KeyboardInterrupt:
            if self.store is not None:
                self.store.write_state(
                    "cursor", {**cursor(), "interrupted": True})
            raise

    def verdicts(self, pattern_counts: Dict[FaultPattern, int],
                 chunk_size: int) -> Dict[FaultPattern, bool]:
        evaluations = self.stats.evaluations
        verdict_map = _resolve_verdicts(self.context, pattern_counts,
                                        self.cache, self.workers,
                                        chunk_size, self.stats,
                                        self.progress, journal=self.store)
        self.stats.distinct_patterns += self._count_new(
            pattern_counts, self.stats.evaluations - evaluations)
        return verdict_map

    def _count_new(self, pattern_counts: Dict[FaultPattern, int],
                   misses: int) -> int:
        """How many of ``pattern_counts`` the run has not looked up
        before, so ``distinct_patterns`` counts each pattern once per
        run however many batches draw it.

        A run-owned cache that resumed no journal holds exactly the
        patterns looked up so far, so the lookup's cache ``misses``
        are its new patterns (an evicted pattern drawn again counts
        again).  A shared or resumed cache also holds patterns from
        elsewhere, so such a run counts against its own: the first
        lookup is all new and kept by reference (no caller changes it
        afterwards), and only a second lookup seeds a set from it.
        """
        if self.owns_cache and not self.stats.resumed_verdicts:
            return misses
        if self.first_lookup is None:
            self.first_lookup = pattern_counts
            return len(pattern_counts)
        if self.looked_up is None:
            self.looked_up = set(self.first_lookup)
        new = pattern_counts.keys() - self.looked_up
        self.looked_up |= new
        return len(new)

    def judge_chunks(self, seed: Optional[int], total: int,
                     chunk_size: int,
                     draw: Callable[[np.random.Generator, int,
                                     Dict[FaultPattern, int]], None],
                     stream_key: Sequence[int] = ()
                     ) -> Tuple[Dict[FaultPattern, int],
                                Dict[FaultPattern, bool]]:
        """Fixed-budget sample → dedup → evaluate.

        ``draw(rng, length, pattern_counts)`` samples one chunk of the
        ``total`` work items from that chunk's spawned stream.  Returns
        the canonical pattern counts and their verdicts.
        """
        self.stats.trials = total
        pattern_counts: Dict[FaultPattern, int] = {}
        sample_start = time.perf_counter()
        chunks = _spawn_chunks(seed, total, chunk_size,
                               stream_key=stream_key)
        self.stats.chunks = len(chunks)
        done = 0
        for chunk_index, (length, child) in enumerate(chunks):
            draw(np.random.default_rng(child), length, pattern_counts)
            done += length
            if self.progress is not None:
                self.progress(ProgressEvent(
                    phase="sample", done=done, total=total,
                    chunk_index=chunk_index, chunks_total=len(chunks),
                    elapsed_seconds=time.perf_counter() - sample_start,
                ))
        self.stats.sample_seconds = time.perf_counter() - sample_start
        cursor = {"sample_chunks_done": len(chunks),
                  "distinct_patterns": len(pattern_counts)}
        if self.store is not None:
            self.store.write_state("cursor", cursor)
        with self.interruptible(lambda: cursor):
            return pattern_counts, self.verdicts(pattern_counts,
                                                 chunk_size)

    def finish(self, summary: Dict[str, object]) -> None:
        self.stats.total_seconds = time.perf_counter() - self.start
        if self.store is not None:
            self.store.finalize(summary)


def run_monte_carlo(gadget: Gadget,
                    initial_state: SparseState,
                    evaluator: Callable[[SparseState], bool],
                    noise: NoiseModel,
                    trials: int,
                    locations: Optional[Sequence[FaultLocation]] = None,
                    seed: Optional[int] = None,
                    workers: int = 1,
                    chunk_size: int = DEFAULT_CHUNK_SIZE,
                    batch_size: int = MAX_LANES,
                    cache: Optional[FaultPatternCache] = None,
                    progress: Optional[Callable[[ProgressEvent], None]]
                    = None,
                    invariant: Optional[Callable[[SparseState], None]]
                    = None,
                    checkpoint=None,
                    runtime: Optional[RuntimePolicy] = None,
                    optimize=False):
    """Estimate a gadget's failure rate under stochastic faults.

    Returns a :class:`~repro.analysis.montecarlo.GadgetMonteCarloResult`
    with ``engine_stats`` attached.  Every sampled trial is judged by
    ``evaluator`` (True = acceptable output) on the gadget's output
    for ``initial_state`` (use :meth:`Gadget.initial_state`); fault-
    free trials count as successes.  ``locations`` pre-enumerated
    locations amortise enumeration across a p sweep.  ``seed=None``
    draws fresh OS entropy, making the run non-reproducible.

    For a fixed ``(seed, trials, chunk_size)`` the result is
    bit-identical for every ``workers`` value and every
    ``batch_size``.  Each distinct canonical fault pattern is judged
    once; ``cache`` (a shared :class:`FaultPatternCache`) persists the
    verdicts across calls; ``progress`` receives a
    :class:`ProgressEvent` per chunk.

    Distinct patterns are judged in lane stacks of the one evaluation
    path, :mod:`repro.simulators.batched`: each stack is one sparse
    register advanced as a whole, with per-lane amplitudes
    bit-identical to serial evolution.  The engine derives the width
    from the initial state (:func:`stack_width`); ``batch_size`` only
    caps it.  Sampling, dedup, seeds, verdicts and checkpoint
    fingerprints do not depend on it.

    ``invariant`` enables validation mode: every fresh simulation's
    final state is passed to the callable, which raises
    :class:`~repro.exceptions.VerificationError` on violation (see
    :mod:`repro.verify` for ready-made invariants).

    ``checkpoint`` (a path or :class:`~repro.runtime.CheckpointStore`)
    journals completed evaluation chunks; an existing journal with a
    matching fingerprint is always replayed first, so a killed run
    picks up where it stopped and finishes bit-identically to an
    uninterrupted one (clear the store for a fresh run).  A mismatched
    or corrupted journal raises
    :class:`~repro.exceptions.CheckpointError` rather than risk a
    wrong number.  ``runtime`` tunes supervision and fault injection
    (default: production :class:`~repro.runtime.RuntimePolicy`).

    ``optimize=True`` rewrites the gadget's circuit through the
    certified gadget optimizer (:func:`repro.optimize.optimize_gadget`)
    before fault locations are enumerated, so trials pay for
    measurably fewer locations.  Incompatible with explicit
    ``locations=``.  Checkpoint fingerprints gain an ``optimizer``
    marker (:data:`repro.optimize.MARKER`), so an optimized journal
    refuses to resume an unoptimized run and vice versa.
    """
    from repro.analysis.montecarlo import GadgetMonteCarloResult

    run = _Run(gadget, initial_state, evaluator, locations, noise=noise,
               optimize=optimize, workers=workers, batch_size=batch_size,
               cache=cache, progress=progress, invariant=invariant,
               runtime=runtime)
    trials = _coerce_count(trials, "trials")
    chunk_size = _coerce_positive(chunk_size, "chunk_size")
    run.open("monte_carlo", {"seed": seed, "trials": trials,
                             "chunk_size": chunk_size},
             checkpoint)
    probs = run.space.probabilities(noise)
    histogram: Dict[int, int] = {}
    pattern_counts, verdict_map = run.judge_chunks(
        seed, trials, chunk_size,
        lambda rng, length, counts: sample_fault_chunk(
            noise, run.gadget, run.space, probs, rng, length, histogram,
            counts),
        stream_key=noise.stream_key())

    failures, failures_by_count = _count_failures(pattern_counts,
                                                  verdict_map)
    run.finish({
        "trials": trials,
        "failures": failures,
        "distinct_patterns": len(pattern_counts),
    })
    return GadgetMonteCarloResult(
        p=noise.p_gate,
        trials=trials,
        failures=failures,
        failures_by_fault_count=failures_by_count,
        fault_count_histogram=histogram,
        engine_stats=run.stats,
    )


def _require_pair_locations(space: FaultSpace) -> None:
    if len(space) < 2:
        raise AnalysisError(
            "malignant-pair sampling needs at least two fault locations"
        )


def run_malignant_pairs(gadget: Gadget,
                        initial_state: SparseState,
                        evaluator: Callable[[SparseState], bool],
                        samples: int,
                        locations: Optional[Sequence[FaultLocation]]
                        = None,
                        seed: Optional[int] = None,
                        channel: str = "depolarizing",
                        workers: int = 1,
                        chunk_size: int = DEFAULT_CHUNK_SIZE,
                        batch_size: int = MAX_LANES,
                        cache: Optional[FaultPatternCache] = None,
                        progress: Optional[Callable[[ProgressEvent], None]]
                        = None,
                        invariant: Optional[
                            Callable[[SparseState], None]] = None,
                        checkpoint=None,
                        runtime: Optional[RuntimePolicy] = None,
                        optimize=False):
    """Monte-Carlo estimate of the malignant-location-pair count.

    Draws random distinct location pairs with a random Pauli fault at
    each (``channel`` restricts the choices), runs the gadget exactly,
    and counts unacceptable outputs.  The remaining options behave as
    in :func:`run_monte_carlo`.  Pair patterns are mostly distinct, so
    this workload is evaluation-dominated and gains the most from
    wide lane stacks.
    """
    from repro.analysis.montecarlo import MalignantPairSample

    run = _Run(gadget, initial_state, evaluator, locations,
               channel=channel, optimize=optimize, workers=workers,
               batch_size=batch_size, cache=cache, progress=progress,
               invariant=invariant, runtime=runtime)
    samples = _coerce_count(samples, "samples")
    if samples > 0:
        _require_pair_locations(run.space)
    chunk_size = _coerce_positive(chunk_size, "chunk_size")
    run.open("malignant_pairs", {"seed": seed, "samples": samples,
                                 "chunk_size": chunk_size,
                                 "channel": channel},
             checkpoint)
    pattern_counts, verdict_map = run.judge_chunks(
        seed, samples, chunk_size,
        lambda rng, length, counts: sample_pair_chunk(
            run.space, rng, length, counts))
    malignant = sum(multiplicity
                    for pattern, multiplicity in pattern_counts.items()
                    if not verdict_map[pattern])
    run.finish({"samples": samples, "malignant": malignant})
    return MalignantPairSample(
        samples=samples,
        malignant=malignant,
        num_locations=len(run.space),
        engine_stats=run.stats,
    )


def run_exhaustive(gadget: Gadget,
                   initial_state: SparseState,
                   evaluator: Callable[[SparseState], bool],
                   locations: Optional[Sequence[FaultLocation]] = None,
                   channel: str = "depolarizing",
                   workers: int = 1,
                   chunk_size: int = DEFAULT_CHUNK_SIZE,
                   batch_size: int = MAX_LANES,
                   cache: Optional[FaultPatternCache] = None,
                   progress: Optional[Callable[[ProgressEvent], None]]
                   = None,
                   invariant: Optional[Callable[[SparseState], None]]
                   = None,
                   checkpoint=None,
                   runtime: Optional[RuntimePolicy] = None,
                   optimize=False) -> ExhaustiveSurvey:
    """Run every single-location Pauli fault through the simulator.

    This is the authoritative certification of the paper's
    fault-tolerance property: the symbolic Pauli analysis cannot see
    the value-dependent cancellations inside the classical correction
    logic (the N_1 syndrome box), so only exact simulation can prove
    that *no* single fault is malignant.  ``failures`` lists the
    failing (location, pauli) pairs in enumeration order; empty =
    fault tolerant.

    Deduplication judges coincident faults once (e.g. a delay fault
    anchored at the same ``after_op`` as an equal gate-location Pauli).
    ``checkpoint``, ``runtime`` and ``optimize`` behave as
    in :func:`run_monte_carlo`; the enumeration is deterministic, so
    no seed is required to resume.
    """
    run = _Run(gadget, initial_state, evaluator, locations,
               channel=channel, optimize=optimize, workers=workers,
               batch_size=batch_size, cache=cache, progress=progress,
               invariant=invariant, runtime=runtime)
    chunk_size = _coerce_positive(chunk_size, "chunk_size")
    items: List[Tuple[FaultLocation, PauliString, FaultPattern]] = [
        (location, pauli,
         canonical_pattern([(pauli, location.after_op)]))
        for location, pauli in run.space.singles()
    ]
    run.stats.trials = len(items)
    run.open("exhaustive", {"items": len(items),
                            "chunk_size": chunk_size,
                            "channel": channel},
             checkpoint)
    pattern_counts: Dict[FaultPattern, int] = {}
    for _, _, key in items:
        pattern_counts[key] = pattern_counts.get(key, 0) + 1
    with run.interruptible(lambda: {}):
        verdict_map = run.verdicts(pattern_counts, chunk_size)
    failures = [(location, pauli) for location, pauli, key in items
                if not verdict_map[key]]
    run.finish({"checked": len(items), "failures": len(failures)})
    return ExhaustiveSurvey(failures=failures, checked=len(items),
                            stats=run.stats)
