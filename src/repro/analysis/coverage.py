"""Coverage and latency estimation for detectors (Powell et al. [5]).

"Metrics, such as coverage and latency, are often used to evaluate the
efficiency of dependability components" (Sections I/II).  Coverage is
the probability that the detector flags a fault given that one was
activated and led to an erroneous state; it is estimated from fault
injection as a binomial proportion, and a point estimate alone is
meaningless without its confidence interval -- the point of Powell et
al.'s estimator work.  This module provides:

* :func:`coverage_estimate` -- point estimate plus Wilson and exact
  Clopper-Pearson intervals at a configurable confidence level
  (:func:`wilson_interval` and :func:`exact_interval` compute one of
  the two alone);
* :func:`latency_statistics` -- detection latency distribution
  (mean / median / percentiles, in probe occurrences) from validation
  verdicts;
* :func:`detector_efficiency_report` -- the combined coverage-and-
  latency summary for a :class:`repro.core.validate.ValidationReport`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.mining.tree.pruning import _normal_quantile

__all__ = [
    "CoverageEstimate",
    "LatencyStatistics",
    "coverage_estimate",
    "wilson_interval",
    "exact_interval",
    "latency_statistics",
    "detector_efficiency_report",
    "EfficiencyReport",
]


@dataclasses.dataclass(frozen=True)
class CoverageEstimate:
    """Binomial coverage estimate with confidence bounds."""

    detected: int
    activated: int
    confidence: float
    point: float
    wilson_low: float
    wilson_high: float
    exact_low: float
    exact_high: float

    def __str__(self) -> str:
        return (
            f"{self.point:.4f} "
            f"[{self.wilson_low:.4f}, {self.wilson_high:.4f}] "
            f"({self.confidence:.0%} Wilson, n={self.activated})"
        )


def coverage_estimate(
    detected: int, activated: int, confidence: float = 0.95
) -> CoverageEstimate:
    """Estimate detection coverage from injection counts.

    ``activated`` is the number of injected runs whose fault produced
    an erroneous (failure-inducing) state; ``detected`` how many the
    detector flagged.
    """
    wilson = wilson_interval(detected, activated, confidence)
    exact = exact_interval(detected, activated, confidence)
    point = detected / activated if activated else 0.0
    return CoverageEstimate(detected, activated, confidence, point, *wilson, *exact)


def _check_counts(detected: int, activated: int, confidence: float) -> None:
    if activated < 0 or detected < 0 or detected > activated:
        raise ValueError("need 0 <= detected <= activated")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")


def wilson_interval(
    detected: int, activated: int, confidence: float = 0.95
) -> tuple[float, float]:
    """The Wilson score interval of :func:`coverage_estimate`, alone."""
    _check_counts(detected, activated, confidence)
    if activated == 0:
        return 0.0, 1.0
    p = detected / activated
    z = _normal_quantile(1 - (1 - confidence) / 2)
    n = activated
    denominator = 1 + z * z / n
    centre = (p + z * z / (2 * n)) / denominator
    margin = (
        z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denominator
    )
    return max(centre - margin, 0.0), min(centre + margin, 1.0)


def exact_interval(
    detected: int, activated: int, confidence: float = 0.95
) -> tuple[float, float]:
    """The exact Clopper-Pearson interval of :func:`coverage_estimate`,
    alone: the beta-quantile bisection (no scipy)."""
    _check_counts(detected, activated, confidence)
    if activated == 0:
        return 0.0, 1.0
    alpha = 1 - confidence
    low = 0.0 if detected == 0 else _beta_quantile(
        alpha / 2, detected, activated - detected + 1
    )
    high = 1.0 if detected == activated else _beta_quantile(
        1 - alpha / 2, detected + 1, activated - detected
    )
    return low, high


def _beta_quantile(q: float, a: float, b: float) -> float:
    """Inverse regularised incomplete beta via bisection.

    Accurate to ~1e-10, which is far tighter than coverage reporting
    needs; avoids a scipy dependency.  Stops once the midpoint equals
    an end of the bracket: the two ends are then adjacent floats, no
    later step can move them, and the midpoint is what the last of 200
    steps would return.
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            return mid
        if _beta_cdf(mid, a, b) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularised incomplete beta I_x(a, b) by continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(a * math.log(x) + b * math.log(1 - x) - ln_beta)
    # Lentz continued fraction, with the symmetry transform for
    # convergence.
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - math.exp(
        b * math.log(1 - x) + a * math.log(x) - ln_beta
    ) * _beta_cf(1 - x, b, a) / b


def _beta_cf(x: float, a: float, b: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


@dataclasses.dataclass(frozen=True)
class LatencyStatistics:
    """Detection latency distribution over true positives."""

    count: int
    mean: float
    median: float
    p90: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} median={self.median:.1f} "
            f"p90={self.p90:.1f} max={self.maximum:.0f}"
        )


def latency_statistics(latencies) -> LatencyStatistics:
    """Summarise detection latencies (in probe occurrences)."""
    values = np.asarray([l for l in latencies if l is not None], dtype=float)
    if values.size == 0:
        return LatencyStatistics(0, 0.0, 0.0, 0.0, 0.0)
    return LatencyStatistics(
        count=int(values.size),
        mean=float(values.mean()),
        median=float(np.median(values)),
        p90=float(np.percentile(values, 90)),
        maximum=float(values.max()),
    )


@dataclasses.dataclass
class EfficiencyReport:
    """Coverage + latency for one validated detector."""

    coverage: CoverageEstimate
    false_positive_rate: float
    latency: LatencyStatistics

    def __str__(self) -> str:
        return (
            f"coverage {self.coverage}; fpr={self.false_positive_rate:.4f}; "
            f"latency {self.latency}"
        )


def detector_efficiency_report(
    report, confidence: float = 0.95
) -> EfficiencyReport:
    """Build the coverage/latency view of a ValidationReport."""
    activated = sum(1 for v in report.verdicts if v.record.failed)
    detected = sum(
        1 for v in report.verdicts if v.record.failed and v.flagged
    )
    latencies = [
        v.latency
        for v in report.verdicts
        if v.record.failed and v.flagged
    ]
    return EfficiencyReport(
        coverage=coverage_estimate(detected, activated, confidence),
        false_positive_rate=report.observed_fpr,
        latency=latency_statistics(latencies),
    )
