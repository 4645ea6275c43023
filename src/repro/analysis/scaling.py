"""Scaling fits: certifying the O(p^2) claim from sampled data.

A fault-tolerant gadget's logical failure rate must vanish
quadratically with the physical rate p; an unprotected operation
degrades linearly.  :func:`fit_power_law` extracts the exponent from a
(p, rate) series by least squares in log-log space, which is what the
benchmark harness reports next to the paper's analytic claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import AnalysisError


@dataclass(frozen=True)
class PowerLawFit:
    """rate ~ coefficient * p^exponent."""

    exponent: float
    coefficient: float
    points_used: int
    residual: float


def fit_power_law(p_values: Sequence[float],
                  rates: Sequence[float],
                  stderrs: Optional[Sequence[float]] = None,
                  intervals: Optional[Sequence] = None
                  ) -> PowerLawFit:
    """Least-squares log-log fit, dropping zero-rate points.

    Zero observed failures at small p carry no log-space information;
    they are excluded (with at least two informative points required).
    ``intervals`` (a :class:`~repro.analysis.stats.BinomialInterval`
    per point, e.g. from :func:`~repro.analysis.sequential.
    adaptive_sweep_p`) supersedes ``stderrs``: points whose interval
    reaches 0 are statistically consistent with a zero rate and are
    excluded the same way.
    """
    xs: List[float] = []
    ys: List[float] = []
    for index, (p, rate) in enumerate(zip(p_values, rates)):
        if p <= 0:
            raise AnalysisError("p values must be positive")
        if rate <= 0:
            continue
        if intervals is not None:
            if intervals[index].lower <= 0.0:
                # Interval reaches zero: too noisy to place.
                continue
        elif stderrs is not None and rate <= stderrs[index]:
            # Rate indistinguishable from zero: too noisy to place.
            continue
        xs.append(np.log(p))
        ys.append(np.log(rate))
    if len(xs) < 2:
        raise AnalysisError(
            f"need >= 2 nonzero points for a power-law fit, got {len(xs)}"
        )
    design = np.vstack([xs, np.ones(len(xs))]).T
    solution, residual, _, _ = np.linalg.lstsq(design, np.array(ys),
                                               rcond=None)
    slope, intercept = solution
    residual_value = float(residual[0]) if residual.size else 0.0
    return PowerLawFit(
        exponent=float(slope),
        coefficient=float(np.exp(intercept)),
        points_used=len(xs),
        residual=residual_value,
    )
