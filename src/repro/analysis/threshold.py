"""Threshold estimation by fault counting (paper Sec. 4.2).

"The threshold can easily be calculated by counting the potential
places for two errors."  With N fault locations, each failing
independently with probability p, and M malignant location pairs, the
gadget's logical failure probability is bounded by

    P_fail <= M p^2 + O(p^3),

so the gadget improves on a bare physical gate whenever M p^2 < p,
i.e. below the threshold estimate p_th ~ 1 / M.  The counts here are
upper bounds (see :meth:`~repro.analysis.propagation.SingleFaultSurvey.
count_malignant_pairs`), making the thresholds safe lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, TYPE_CHECKING

from repro.analysis.engine import DEFAULT_CHUNK_SIZE
from repro.ft.gadget import Gadget
from repro.noise.locations import FaultLocation, count_locations
from repro.simulators.sparse import SparseState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import EngineStats, FaultPatternCache
    from repro.analysis.stats import BinomialInterval, ClaimVerdict


@dataclass
class ThresholdReport:
    """Counting summary for one gadget.

    Attributes:
        gadget_name: display name.
        location_counts: {'input': ..., 'gate': ..., 'delay': ...,
            'total': ...}, plus any extended kinds ('burst',
            'crosstalk') the locations carry.
        single_fault_failures: single faults with unacceptable
            residuals (0 = the fault-tolerance property holds).
        malignant_pairs: the paper's two-error count (upper bound).
        threshold_estimate: 1 / malignant_pairs (None when the pair
            count is zero).
    """

    gadget_name: str
    location_counts: Dict[str, int]
    single_fault_failures: int
    malignant_pairs: int
    engine_stats: Optional["EngineStats"] = field(
        default=None, compare=False, repr=False,
    )
    #: Confidence interval on the sampled malignant fraction
    #: (sampled reports only).
    pair_interval: Optional["BinomialInterval"] = field(
        default=None, compare=False, repr=False,
    )
    #: Sequential certification outcome for ``p_th >= p_target``
    #: (only when ``certify_threshold_at=`` was requested).
    threshold_verdict: Optional["ClaimVerdict"] = field(
        default=None, compare=False, repr=False,
    )

    @property
    def is_fault_tolerant(self) -> bool:
        return self.single_fault_failures == 0

    @property
    def threshold_estimate(self) -> Optional[float]:
        if self.malignant_pairs == 0:
            return None
        return 1.0 / self.malignant_pairs


def sampled_threshold_report(gadget: Gadget,
                             initial_state: SparseState,
                             evaluator: Callable[[SparseState], bool],
                             samples: int = 400,
                             seed: Optional[int] = None,
                             channel: str = "depolarizing",
                             locations: Optional[Sequence[FaultLocation]]
                             = None,
                             *,
                             workers: int = 1,
                             chunk_size: int = DEFAULT_CHUNK_SIZE,
                             cache: Optional["FaultPatternCache"] = None,
                             checkpoint=None,
                             runtime=None,
                             certify_threshold_at: Optional[float] = None,
                             alpha: float = 0.05,
                             beta: float = 0.05,
                             threshold_margin: float = 4.0,
                             sequential_method: str = "sprt",
                             ) -> ThresholdReport:
    """Exact state-based counting report for one gadget.

    Where the symbolic
    :class:`~repro.analysis.propagation.GadgetFaultAnalyzer` over-counts
    (worst-case Pauli propagation cannot see value-dependent
    cancellation inside the classical correction logic), this report
    certifies the single faults exhaustively on the sparse simulator
    and samples the malignant-pair count, both scheduled through
    :mod:`repro.analysis.engine` so large gadgets can use a worker
    pool and a shared verdict cache.  ``malignant_pairs`` is the
    rounded sampled estimate M_eff.

    ``checkpoint`` journals the two phases into ``exhaustive`` and
    ``pairs`` subdirectories of the run directory, so a crashed report
    resumes mid-phase; ``runtime`` tunes supervision for both (see
    :func:`repro.analysis.engine.run_monte_carlo`).

    ``certify_threshold_at=p_target`` switches the pair phase to a
    sequential certification of the claim ``p_th >= p_target``
    (equivalently: malignant fraction <= 1 / (p_target *
    location_pairs)), run at error rates ``alpha``/``beta`` against
    the alternative that the fraction is ``threshold_margin`` times
    larger.  The run stops as soon as the claim is decided (``samples``
    becomes the budget ceiling) and the typed verdict lands in
    ``report.threshold_verdict``; requires an explicit ``seed``.
    ``report.pair_interval`` always carries the malignant-fraction
    confidence interval.
    """
    from repro.analysis import engine
    from repro.runtime.checkpoint import as_store

    locations = list(gadget.fault_locations() if locations is None
                     else locations)
    store = as_store(checkpoint)
    survey = engine.run_exhaustive(
        gadget, initial_state, evaluator, locations=locations,
        channel=channel, workers=workers, chunk_size=chunk_size,
        cache=cache,
        checkpoint=store.substore("exhaustive") if store else None,
        runtime=runtime,
    )
    threshold_verdict = None
    if certify_threshold_at is not None:
        from repro.analysis.sequential import (
            run_sequential_pair_sampling,
        )
        from repro.exceptions import AnalysisError

        pairs = len(locations) * (len(locations) - 1) // 2
        if certify_threshold_at <= 0 or pairs == 0:
            raise AnalysisError(
                f"certify_threshold_at must be positive with >= 2 "
                f"locations, got p_target={certify_threshold_at} over "
                f"{len(locations)} locations"
            )
        if threshold_margin <= 1.0:
            raise AnalysisError(
                f"threshold_margin must exceed 1, got "
                f"{threshold_margin}"
            )
        f0 = min(1.0 / (certify_threshold_at * pairs), 0.49)
        f1 = min(threshold_margin * f0, 0.99)
        if f1 <= f0:
            raise AnalysisError(
                f"degenerate certification boundaries f0={f0:g}, "
                f"f1={f1:g}; pick a smaller p_target or margin"
            )
        sequential = run_sequential_pair_sampling(
            gadget, initial_state, evaluator,
            f0=f0, f1=f1, alpha=alpha, beta=beta,
            max_samples=samples, seed=seed,
            batch_size=chunk_size, method=sequential_method,
            claim=(f"{gadget.name} p_th >= {certify_threshold_at:g} "
                   f"(malignant_fraction <= {f0:g})"),
            locations=locations, channel=channel,
            workers=workers, cache=cache,
            checkpoint=store.substore("pairs") if store else None,
            runtime=runtime,
        )
        pair_sample = sequential.sample
        threshold_verdict = sequential.verdict
    else:
        pair_sample = engine.run_malignant_pairs(
            gadget, initial_state, evaluator, samples,
            locations=locations, seed=seed, channel=channel,
            workers=workers, chunk_size=chunk_size, cache=cache,
            checkpoint=store.substore("pairs") if store else None,
            runtime=runtime,
        )
    stats = survey.stats
    stats.absorb(pair_sample.engine_stats)
    return ThresholdReport(
        gadget_name=gadget.name,
        location_counts=count_locations(gadget.circuit, locations),
        single_fault_failures=len(survey.failures),
        malignant_pairs=int(round(pair_sample.estimated_malignant_pairs)),
        engine_stats=stats,
        pair_interval=pair_sample.interval(),
        threshold_verdict=threshold_verdict,
    )
