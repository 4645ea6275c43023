"""Monte-Carlo fault injection for gadgets: result types and sweeps.

Complements the exact counting of :mod:`repro.analysis.propagation`
with sampled logical-error-rate estimates: faults drawn from a
:class:`~repro.noise.model.NoiseModel` over the gadget's locations,
the gadget executed on the sparse simulator, and the output judged by
a caller-supplied evaluator (typically
:func:`~repro.ft.ideal_recovery.recovered_block_overlap` against the
ideal output).  These are the data behind every O(p^2) curve in the
benchmark suite.

The sampling itself is :mod:`repro.analysis.engine`, the one
evaluation path (``run_monte_carlo``, ``run_malignant_pairs``,
``run_exhaustive``), which returns these result types.  The engine
chunks trials over per-chunk ``SeedSequence.spawn`` streams
(bit-identical results for any worker count), judges each distinct
canonical fault pattern once, in a stack of lanes, and memoises the
verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TYPE_CHECKING,
)

from repro.analysis.engine import (
    DEFAULT_CHUNK_SIZE,
    FaultPatternCache,
    _decode_counts,
    _encode_counts,
    _location_fields,
    run_monte_carlo,
)
from repro.exceptions import AnalysisError
from repro.ft.gadget import Gadget
from repro.noise.locations import FaultLocation
from repro.noise.model import NoiseModel
from repro.runtime.checkpoint import as_store
from repro.simulators.sparse import SparseState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import EngineStats, ProgressEvent

__all__ = [
    "GadgetMonteCarloResult",
    "MalignantPairSample",
    "sweep_p",
]


@dataclass
class GadgetMonteCarloResult:
    """Sampled failure statistics for one (gadget, p) point.

    ``engine_stats`` carries cache and scheduling instrumentation
    (``None`` on a point replayed from a sweep journal); it is
    excluded from equality so equivalence across worker counts and
    evaluation paths can be asserted on the statistical payload
    alone.
    """

    p: float
    trials: int
    failures: int
    failures_by_fault_count: Dict[int, int]
    fault_count_histogram: Dict[int, int]
    engine_stats: Optional["EngineStats"] = field(
        default=None, compare=False, repr=False,
    )

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    def interval(self, confidence: float = 0.95,
                 method: str = "wilson"):
        """Confidence interval for the failure rate (see
        :func:`repro.analysis.stats.binomial_interval`)."""
        from repro.analysis.stats import binomial_interval

        return binomial_interval(self.failures, self.trials,
                                 confidence, method)

    @property
    def single_fault_failures(self) -> int:
        return self.failures_by_fault_count.get(1, 0)


@dataclass
class MalignantPairSample:
    """Sampled estimate of the paper's two-error count.

    ``malignant_fraction`` estimates the probability that a uniformly
    random (location pair, Pauli choice) combination is malignant;
    multiplied by the number of location pairs it estimates the
    effective malignant-pair count M in P_fail <= M p^2, hence the
    threshold ~ 1/M.
    """

    samples: int
    malignant: int
    num_locations: int
    engine_stats: Optional["EngineStats"] = field(
        default=None, compare=False, repr=False,
    )

    @property
    def malignant_fraction(self) -> float:
        return self.malignant / self.samples if self.samples else 0.0

    @property
    def location_pairs(self) -> int:
        return self.num_locations * (self.num_locations - 1) // 2

    @property
    def estimated_malignant_pairs(self) -> float:
        return self.malignant_fraction * self.location_pairs

    @property
    def threshold_estimate(self) -> Optional[float]:
        estimate = self.estimated_malignant_pairs
        return 1.0 / estimate if estimate > 0 else None

    def interval(self, confidence: float = 0.95,
                 method: str = "wilson"):
        """Confidence interval for the malignant fraction."""
        from repro.analysis.stats import binomial_interval

        return binomial_interval(self.malignant, self.samples,
                                 confidence, method)


def _point_payload(result: GadgetMonteCarloResult) -> Dict[str, object]:
    """JSON form of one sweep point (engine_stats excluded — it is
    instrumentation, outside result equality)."""
    return {
        "p": result.p,
        "trials": result.trials,
        "failures": result.failures,
        "failures_by_fault_count": _encode_counts(
            result.failures_by_fault_count),
        "fault_count_histogram": _encode_counts(
            result.fault_count_histogram),
    }


def _point_from_payload(payload: Dict[str, object]
                        ) -> GadgetMonteCarloResult:
    return GadgetMonteCarloResult(
        p=float(payload["p"]),
        trials=int(payload["trials"]),
        failures=int(payload["failures"]),
        failures_by_fault_count=_decode_counts(
            payload["failures_by_fault_count"]),
        fault_count_histogram=_decode_counts(
            payload["fault_count_histogram"]),
    )


def sweep_p(gadget: Gadget,
            initial_state: SparseState,
            evaluator: Callable[[SparseState], bool],
            p_values: Sequence[float],
            trials: int,
            channel: str = "depolarizing",
            seed: Optional[int] = None,
            *,
            locations: Optional[Sequence[FaultLocation]] = None,
            workers: int = 1,
            chunk_size: int = DEFAULT_CHUNK_SIZE,
            cache: Optional[FaultPatternCache] = None,
            progress: Optional[Callable[["ProgressEvent"], None]] = None,
            checkpoint=None,
            runtime=None,
            ) -> List[GadgetMonteCarloResult]:
    """Failure-rate series over a range of physical error rates.

    Seed semantics: the point at index ``i`` runs with ``seed + i``,
    so one ``seed`` pins the entire series (identical re-runs) while
    every point still draws from a distinct stream.  With
    ``seed=None`` each point seeds itself from OS entropy and the
    series is **nondeterministic** — pass a seed for reproducible
    figures.

    ``channel`` and the engine options are threaded through to every
    underlying :func:`~repro.analysis.engine.run_monte_carlo` call.
    A single :class:`~repro.analysis.engine.FaultPatternCache` is
    shared across all points (verdicts depend only on the fault
    pattern, not on p), so later points mostly reuse earlier
    simulations.

    ``checkpoint`` makes the sweep resumable at two granularities:
    completed points are journaled whole (``points`` records under the
    run directory) and the point in flight checkpoints its evaluation
    chunks in a ``point-NNN`` subdirectory.  Re-running the same call
    after a crash replays completed points verbatim and finishes the
    interrupted one, yielding the same series an uninterrupted run
    produces; clear the store first for a fresh series.  Resumed
    points carry ``engine_stats=None`` (the instrumentation died with
    the crashed process; the statistics did not).  Requires a seed,
    like the per-run journals.
    """
    given = locations
    locations = list(gadget.fault_locations() if given is None
                     else given)
    if cache is None:
        cache = FaultPatternCache()

    store = as_store(checkpoint)
    done_points: Dict[int, GadgetMonteCarloResult] = {}
    if store is not None:
        if seed is None:
            raise AnalysisError(
                "sweep_p checkpointing requires an explicit seed: an "
                "unseeded sweep cannot be resumed bit-identically"
            )
        fingerprint = {
            "workload": "sweep_p",
            "gadget": gadget.name,
            **_location_fields(gadget, given, len(locations)),
            "p_values": [float(p) for p in p_values],
            "trials": int(trials),
            "seed": seed,
            "chunk_size": chunk_size,
            "channel": channel,
        }
        if store.exists():
            store.check_fingerprint(fingerprint)
            for record in store.load_records("points"):
                done_points[int(record["index"])] = \
                    _point_from_payload(record["result"])
        else:
            store.clear()
            store.write_header(fingerprint)

    results: List[GadgetMonteCarloResult] = []
    for index, p in enumerate(p_values):
        if index in done_points:
            results.append(done_points[index])
            continue
        noise = NoiseModel.uniform(p, channel=channel)
        point_seed = None if seed is None else seed + index
        point_store = store.substore(f"point-{index:03d}") \
            if store is not None else None
        result = run_monte_carlo(
            gadget, initial_state, evaluator, noise, trials,
            locations=locations, seed=point_seed, workers=workers,
            chunk_size=chunk_size, cache=cache,
            progress=progress, checkpoint=point_store, runtime=runtime,
        )
        if store is not None:
            store.append_record("points", {
                "index": index,
                "result": _point_payload(result),
            })
        results.append(result)
    if store is not None:
        store.finalize({"points": len(results)})
    return results
