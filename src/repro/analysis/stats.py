"""Statistical trust layer: certified intervals and sequential tests.

Every headline number the analysis stack produces — gadget failure
rates, malignant-pair fractions, the stress pass/degrade/fail table —
is a binomial proportion estimated by Monte Carlo.  This module turns
those point estimates into *certified* statements:

* **Interval estimators** (:func:`wilson_interval`,
  :func:`clopper_pearson_interval`, :func:`jeffreys_interval`, plus
  the zero-failure :func:`rule_of_three_upper`) replace the bare
  normal-approximation ``stderr``, which degenerates at 0 or n
  observed failures exactly where fault-tolerance claims live.
  Clopper–Pearson is exact (guaranteed >= nominal coverage at every
  (n, p)); Wilson and Jeffreys are the tight approximations the
  literature recommends over the Wald interval.
* **Sequential tests**: a Wald :class:`Sprt` (sequential probability
  ratio test) and an always-valid :class:`ConfidenceSequenceTest`
  (beta-mixture martingale, Ville's inequality), both emitting typed
  ``accept`` / ``reject`` / ``undecided`` decisions at configured
  alpha/beta error rates so a certification run stops as soon as the
  claim is decided instead of burning a fixed trial budget.
* **:class:`ClaimVerdict`** — the typed record a sequential
  certification returns: decision, trials consumed, error budget, and
  an always-valid confidence interval that remains honest under the
  optional stopping the sequential test performs.

Everything here is pure ``math``/``numpy`` — no scipy dependency in
the runtime package (the test suite cross-checks against scipy where
it is available).  All estimator state is a plain dict of counts
(:meth:`Sprt.state_dict`), so sequential runs checkpoint and resume
through :class:`~repro.runtime.checkpoint.CheckpointStore` without
bias: the decision is a deterministic function of the (replayed)
per-batch counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Dict, Optional

from repro.exceptions import AnalysisError

#: Typed sequential decisions.
ACCEPT, REJECT, UNDECIDED = "accept", "reject", "undecided"

#: Interval methods selectable by name.
INTERVAL_METHODS = ("wilson", "clopper-pearson", "jeffreys")


# ---------------------------------------------------------------------------
# Special functions (pure math; no scipy in the runtime package)
# ---------------------------------------------------------------------------

def normal_quantile(q: float) -> float:
    """Inverse standard-normal CDF."""
    if not 0.0 < q < 1.0:
        raise AnalysisError(f"normal quantile needs 0 < q < 1, got {q}")
    return NormalDist().inv_cdf(q)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) via log-gamma."""
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    return h  # converged to float precision for every tested (a, b, x)


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b), the CDF of a Beta(a, b) variate at x."""
    if a <= 0 or b <= 0:
        raise AnalysisError(
            f"beta parameters must be positive, got a={a}, b={b}"
        )
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (a * math.log(x) + b * math.log1p(-x)
                 - math.log(a) - log_beta(a, b))
    # Use the continued fraction on the side where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x)
    log_front_sym = (b * math.log1p(-x) + a * math.log(x)
                     - math.log(b) - log_beta(b, a))
    return 1.0 - math.exp(log_front_sym) * _betacf(b, a, 1.0 - x)


def beta_quantile(q: float, a: float, b: float) -> float:
    """Inverse Beta(a, b) CDF by bisection (monotone, so robust)."""
    if not 0.0 <= q <= 1.0:
        raise AnalysisError(f"beta quantile needs 0 <= q <= 1, got {q}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if regularized_incomplete_beta(a, b, mid) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Interval estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinomialInterval:
    """A confidence interval for a binomial proportion.

    Attributes:
        method: estimator name (``wilson``, ``clopper-pearson``,
            ``jeffreys``, or ``confidence-sequence``).
        failures: observed successes of the counted event.
        trials: number of Bernoulli trials.
        confidence: nominal coverage (e.g. 0.95).
        lower, upper: the interval endpoints in [0, 1].
    """

    method: str
    failures: int
    trials: int
    confidence: float
    lower: float
    upper: float

    @property
    def point(self) -> float:
        return self.failures / self.trials if self.trials else 0.0

    @property
    def half_width(self) -> float:
        return 0.5 * (self.upper - self.lower)

    def contains(self, p: float) -> bool:
        return self.lower <= p <= self.upper

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "method": self.method,
            "failures": self.failures,
            "trials": self.trials,
            "confidence": self.confidence,
            "lower": self.lower,
            "upper": self.upper,
        }


def _check_counts(failures: int, trials: int,
                  confidence: float) -> None:
    if trials < 0 or failures < 0 or failures > trials:
        raise AnalysisError(
            f"invalid binomial counts: failures={failures}, "
            f"trials={trials}"
        )
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(
            f"confidence must be in (0, 1), got {confidence}"
        )


def wilson_interval(failures: int, trials: int,
                    confidence: float = 0.95) -> BinomialInterval:
    """Wilson score interval — the recommended normal-free default.

    Never degenerates to zero width at 0 or n observed failures, and
    its coverage tracks the nominal level far better than the Wald
    interval at the small rates the O(p^2) experiments probe.
    """
    _check_counts(failures, trials, confidence)
    if trials == 0:
        return BinomialInterval("wilson", 0, 0, confidence, 0.0, 1.0)
    z = normal_quantile(0.5 + confidence / 2.0)
    n = float(trials)
    p_hat = failures / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2.0 * n)) / denom
    margin = (z / denom) * math.sqrt(
        p_hat * (1.0 - p_hat) / n + z * z / (4.0 * n * n)
    )
    # Pin the boundary endpoints exactly: at 0 (resp. n) observed
    # failures the score interval's endpoint is analytically 0 (resp.
    # 1), but the float arithmetic above leaves ~1e-17 residue, which
    # would make contains(0.0) false.
    lower = 0.0 if failures == 0 else max(0.0, center - margin)
    upper = 1.0 if failures == trials else min(1.0, center + margin)
    return BinomialInterval(
        "wilson", failures, trials, confidence, lower, upper,
    )


def clopper_pearson_interval(failures: int, trials: int,
                             confidence: float = 0.95
                             ) -> BinomialInterval:
    """Clopper–Pearson exact interval: guaranteed >= nominal coverage.

    Inverts the binomial tail tests through the Beta quantile
    identities; never anti-conservative at any (n, p), which is the
    property a safety claim ("the failure rate is below p_th") needs.
    """
    _check_counts(failures, trials, confidence)
    if trials == 0:
        return BinomialInterval("clopper-pearson", 0, 0, confidence,
                                0.0, 1.0)
    alpha = 1.0 - confidence
    if failures == 0:
        lower = 0.0
    else:
        lower = beta_quantile(alpha / 2.0, failures,
                              trials - failures + 1)
    if failures == trials:
        upper = 1.0
    else:
        upper = beta_quantile(1.0 - alpha / 2.0, failures + 1,
                              trials - failures)
    return BinomialInterval("clopper-pearson", failures, trials,
                            confidence, lower, upper)


def jeffreys_interval(failures: int, trials: int,
                      confidence: float = 0.95) -> BinomialInterval:
    """Jeffreys interval: Beta(1/2, 1/2) posterior quantiles.

    The equal-tailed credible interval under the Jeffreys prior, with
    the conventional endpoint fix-ups (lower = 0 at zero failures,
    upper = 1 at all failures).
    """
    _check_counts(failures, trials, confidence)
    if trials == 0:
        return BinomialInterval("jeffreys", 0, 0, confidence, 0.0, 1.0)
    alpha = 1.0 - confidence
    a = failures + 0.5
    b = trials - failures + 0.5
    lower = 0.0 if failures == 0 else beta_quantile(alpha / 2.0, a, b)
    upper = 1.0 if failures == trials else \
        beta_quantile(1.0 - alpha / 2.0, a, b)
    return BinomialInterval("jeffreys", failures, trials, confidence,
                            lower, upper)


def rule_of_three_upper(trials: int, confidence: float = 0.95) -> float:
    """Upper bound on the rate after ``trials`` failure-free trials.

    The exact one-sided bound ``1 - (1 - confidence)^(1/n)``, whose
    first-order form at 95% is the classic 3/n "rule of three".  This
    is the number a zero-failure fault-tolerance run should report
    instead of ``stderr = 0``.
    """
    if trials < 1:
        raise AnalysisError(
            f"rule of three needs >= 1 trial, got {trials}"
        )
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(
            f"confidence must be in (0, 1), got {confidence}"
        )
    return 1.0 - (1.0 - confidence) ** (1.0 / trials)


def binomial_interval(failures: int, trials: int,
                      confidence: float = 0.95,
                      method: str = "wilson") -> BinomialInterval:
    """Dispatch by method name (see :data:`INTERVAL_METHODS`)."""
    builders = {
        "wilson": wilson_interval,
        "clopper-pearson": clopper_pearson_interval,
        "jeffreys": jeffreys_interval,
    }
    if method not in builders:
        raise AnalysisError(
            f"unknown interval method {method!r}; pick from "
            f"{sorted(builders)}"
        )
    return builders[method](failures, trials, confidence)


def interval_stderr(failures: int, trials: int,
                    confidence: float = 0.95) -> float:
    """Wilson-based standard-error surrogate.

    The Wilson half-width divided by the normal quantile: coincides
    with the classical binomial standard error away from the
    boundaries but stays strictly positive at 0 or n failures, where
    the normal approximation collapses to a lying zero.
    """
    if trials == 0:
        return 0.0
    z = normal_quantile(0.5 + confidence / 2.0)
    return wilson_interval(failures, trials, confidence).half_width / z


def exact_coverage(method: str, trials: int, p: float,
                   confidence: float = 0.95) -> float:
    """Exact coverage of an interval method at one (n, p).

    Sums the binomial pmf over the outcomes whose interval contains
    ``p`` — no Monte Carlo involved, so statements like "Clopper–
    Pearson is never anti-conservative" are checkable exactly.
    """
    if not 0.0 <= p <= 1.0:
        raise AnalysisError(f"p must be in [0, 1], got {p}")
    total = 0.0
    for k in range(trials + 1):
        interval = binomial_interval(k, trials, confidence, method)
        if interval.contains(p):
            if p in (0.0, 1.0):
                pmf = 1.0 if (k == 0) == (p == 0.0) else 0.0
            else:
                log_pmf = (math.lgamma(trials + 1)
                           - math.lgamma(k + 1)
                           - math.lgamma(trials - k + 1)
                           + k * math.log(p)
                           + (trials - k) * math.log1p(-p))
                pmf = math.exp(log_pmf)
            total += pmf
    return total


# ---------------------------------------------------------------------------
# Sequential tests
# ---------------------------------------------------------------------------

def _check_boundaries(p0: float, p1: float, alpha: float,
                      beta: float) -> None:
    if not 0.0 < p0 < p1 < 1.0:
        raise AnalysisError(
            f"sequential test needs 0 < p0 < p1 < 1, got "
            f"p0={p0}, p1={p1}"
        )
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < value < 0.5:
            raise AnalysisError(
                f"{name} must be in (0, 0.5), got {value}"
            )


class Sprt:
    """Wald's sequential probability ratio test for a failure rate.

    Tests H0: p <= ``p0`` (the claim holds) against H1: p >= ``p1``,
    with type-I error ``alpha`` (rejecting a true claim) and type-II
    error ``beta`` (accepting a false one).  The decision is *sticky*:
    once a Wald boundary is crossed, later updates are ignored — that
    is the stopping rule, and it is what makes replaying journaled
    batch counts reproduce the live decision exactly.
    """

    def __init__(self, p0: float, p1: float, alpha: float = 0.05,
                 beta: float = 0.05) -> None:
        _check_boundaries(p0, p1, alpha, beta)
        self.p0, self.p1 = float(p0), float(p1)
        self.alpha, self.beta = float(alpha), float(beta)
        self._llr_failure = math.log(p1 / p0)
        self._llr_success = math.log((1.0 - p1) / (1.0 - p0))
        self.upper_boundary = math.log((1.0 - beta) / alpha)
        self.lower_boundary = math.log(beta / (1.0 - alpha))
        self.trials = 0
        self.failures = 0
        self.log_likelihood_ratio = 0.0
        self.decision: Optional[str] = None
        self.decided_at: Optional[int] = None

    def update(self, failures: int, trials: int) -> Optional[str]:
        """Fold one batch of Bernoulli outcomes into the test."""
        if failures < 0 or trials < 0 or failures > trials:
            raise AnalysisError(
                f"invalid batch: failures={failures}, trials={trials}"
            )
        if self.decision is not None:
            return self.decision
        self.trials += trials
        self.failures += failures
        self.log_likelihood_ratio += (
            failures * self._llr_failure
            + (trials - failures) * self._llr_success
        )
        if self.log_likelihood_ratio >= self.upper_boundary:
            self.decision = REJECT
            self.decided_at = self.trials
        elif self.log_likelihood_ratio <= self.lower_boundary:
            self.decision = ACCEPT
            self.decided_at = self.trials
        return self.decision

    def state_dict(self) -> Dict[str, Any]:
        """Checkpointable estimator state (counts + decision)."""
        return {
            "trials": self.trials,
            "failures": self.failures,
            "log_likelihood_ratio": self.log_likelihood_ratio,
            "decision": self.decision,
            "decided_at": self.decided_at,
        }


class ConfidenceSequenceTest:
    """Always-valid sequential test via a beta-mixture martingale.

    For each candidate rate p, the prior-posterior ratio

        M_n(p) = B(a + k, b + n - k) / B(a, b) / (p^k (1-p)^(n-k))

    is a nonnegative martingale under p with M_0 = 1, so by Ville's
    inequality ``P(exists n: M_n(p) >= 1/delta) <= delta``.  The test
    rejects the claim (p <= ``p0``) when the martingale at ``p0``
    exceeds ``1/alpha`` with the empirical rate above p0, and accepts
    when the martingale at ``p1`` exceeds ``1/beta`` with the
    empirical rate below p1.  Unlike the SPRT, the implied confidence
    sequence (:meth:`interval`) is valid *at every n simultaneously*,
    so the reported interval stays honest under optional stopping.
    """

    def __init__(self, p0: float, p1: float, alpha: float = 0.05,
                 beta: float = 0.05, prior_a: float = 0.5,
                 prior_b: float = 0.5) -> None:
        _check_boundaries(p0, p1, alpha, beta)
        if prior_a <= 0 or prior_b <= 0:
            raise AnalysisError(
                f"mixture prior must be positive, got "
                f"a={prior_a}, b={prior_b}"
            )
        self.p0, self.p1 = float(p0), float(p1)
        self.alpha, self.beta = float(alpha), float(beta)
        self.prior_a, self.prior_b = float(prior_a), float(prior_b)
        self.trials = 0
        self.failures = 0
        self.decision: Optional[str] = None
        self.decided_at: Optional[int] = None

    def log_martingale(self, p: float) -> float:
        """log M_n(p) at the current counts."""
        if not 0.0 < p < 1.0:
            raise AnalysisError(f"need 0 < p < 1, got {p}")
        k, n = self.failures, self.trials
        log_posterior = log_beta(self.prior_a + k,
                                 self.prior_b + n - k)
        log_prior = log_beta(self.prior_a, self.prior_b)
        log_likelihood = k * math.log(p) + (n - k) * math.log1p(-p)
        return log_posterior - log_prior - log_likelihood

    def update(self, failures: int, trials: int) -> Optional[str]:
        if failures < 0 or trials < 0 or failures > trials:
            raise AnalysisError(
                f"invalid batch: failures={failures}, trials={trials}"
            )
        if self.decision is not None:
            return self.decision
        self.trials += trials
        self.failures += failures
        if self.trials == 0:
            return None
        rate = self.failures / self.trials
        if rate > self.p0 and \
                self.log_martingale(self.p0) > math.log(1.0 / self.alpha):
            self.decision = REJECT
            self.decided_at = self.trials
        elif rate < self.p1 and \
                self.log_martingale(self.p1) > math.log(1.0 / self.beta):
            self.decision = ACCEPT
            self.decided_at = self.trials
        return self.decision

    def interval(self, confidence: float = 0.95) -> BinomialInterval:
        """The confidence sequence at the current counts.

        The sub-level set {p : M_n(p) < 1/(1-confidence)} — an
        interval, because the log-martingale is convex in p with its
        minimum at the empirical rate.  Valid simultaneously over all
        n at the stated level, hence safe to report after stopping.
        """
        if not 0.0 < confidence < 1.0:
            raise AnalysisError(
                f"confidence must be in (0, 1), got {confidence}"
            )
        threshold = math.log(1.0 / (1.0 - confidence))
        if self.trials == 0:
            return BinomialInterval("confidence-sequence", 0, 0,
                                    confidence, 0.0, 1.0)
        rate = self.failures / self.trials
        eps = 1e-12

        def excluded(p: float) -> bool:
            return self.log_martingale(p) > threshold

        anchor = min(max(rate, eps), 1.0 - eps)
        lower, upper = 0.0, 1.0
        if excluded(eps) and eps < anchor:
            lo, hi = eps, anchor
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if excluded(mid):
                    lo = mid
                else:
                    hi = mid
            lower = lo
        if excluded(1.0 - eps) and anchor < 1.0 - eps:
            lo, hi = anchor, 1.0 - eps
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if excluded(mid):
                    hi = mid
                else:
                    lo = mid
            upper = hi
        return BinomialInterval("confidence-sequence", self.failures,
                                self.trials, confidence, lower, upper)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "trials": self.trials,
            "failures": self.failures,
            "decision": self.decision,
            "decided_at": self.decided_at,
        }


#: Sequential test methods selectable by name.
SEQUENTIAL_METHODS = ("sprt", "confidence-sequence")


def make_sequential_test(method: str, p0: float, p1: float,
                         alpha: float = 0.05, beta: float = 0.05):
    """Build a sequential test by name."""
    if method == "sprt":
        return Sprt(p0, p1, alpha=alpha, beta=beta)
    if method == "confidence-sequence":
        return ConfidenceSequenceTest(p0, p1, alpha=alpha, beta=beta)
    raise AnalysisError(
        f"unknown sequential method {method!r}; pick from "
        f"{SEQUENTIAL_METHODS}"
    )


# ---------------------------------------------------------------------------
# Typed claim verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimVerdict:
    """The certified outcome of one sequential claim test.

    Attributes:
        claim: human-readable statement of H0 (e.g.
            ``failure_rate <= 0.01``).
        decision: ``accept`` (H0 certified at level beta), ``reject``
            (H1 certified at level alpha) or ``undecided`` (budget
            exhausted between the boundaries).
        trials / failures: Bernoulli counts consumed.
        p0 / p1: the indifference-zone boundaries tested.
        alpha / beta: the configured error rates.
        method: ``sprt`` or ``confidence-sequence``.
        max_trials: the budget the run was allowed.
        interval: an always-valid confidence interval on the rate
            (safe to read despite the data-dependent stopping time).
    """

    claim: str
    decision: str
    trials: int
    failures: int
    p0: float
    p1: float
    alpha: float
    beta: float
    method: str
    max_trials: int
    interval: BinomialInterval

    @property
    def stopped_early(self) -> bool:
        return self.decision != UNDECIDED and self.trials < self.max_trials

    @property
    def trials_saved(self) -> int:
        return self.max_trials - self.trials

    def summary_line(self) -> str:
        saved = (f", saved {self.trials_saved} of {self.max_trials} "
                 f"budgeted trials" if self.stopped_early else "")
        return (
            f"{self.claim}: {self.decision.upper()} after "
            f"{self.trials} trials ({self.failures} failures, rate in "
            f"[{self.interval.lower:.2e}, {self.interval.upper:.2e}] "
            f"at {100 * self.interval.confidence:.0f}%{saved})"
        )

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "claim": self.claim,
            "decision": self.decision,
            "trials": self.trials,
            "failures": self.failures,
            "p0": self.p0,
            "p1": self.p1,
            "alpha": self.alpha,
            "beta": self.beta,
            "method": self.method,
            "max_trials": self.max_trials,
            "interval": self.interval.to_json_dict(),
        }


def build_claim_verdict(test, claim: str, method: str,
                        max_trials: int) -> ClaimVerdict:
    """Assemble the typed verdict from a finished sequential test.

    The reported interval is always the beta-mixture confidence
    *sequence* at level ``1 - (alpha + beta)`` — time-uniform, so it
    stays valid no matter where the test stopped (an ordinary fixed-n
    interval would be biased by the stopping rule).
    """
    confidence = max(0.5, 1.0 - (test.alpha + test.beta))
    sequence = ConfidenceSequenceTest(test.p0, test.p1,
                                      alpha=test.alpha, beta=test.beta)
    sequence.trials = test.trials
    sequence.failures = test.failures
    return ClaimVerdict(
        claim=claim,
        decision=test.decision or UNDECIDED,
        trials=test.trials,
        failures=test.failures,
        p0=test.p0,
        p1=test.p1,
        alpha=test.alpha,
        beta=test.beta,
        method=method,
        max_trials=max_trials,
        interval=sequence.interval(confidence),
    )
