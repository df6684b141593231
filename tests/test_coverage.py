"""Tests for coverage/latency estimation (Powell-style)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.coverage import (
    _beta_cdf,
    _beta_quantile,
    coverage_estimate,
    detector_efficiency_report,
    exact_interval,
    latency_statistics,
    wilson_interval,
)


def _reference_beta_quantile(q: float, a: float, b: float) -> float:
    """The bisection run for all of its 200 steps: the reference the
    early stop of :func:`_beta_quantile` must reproduce bit for bit."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if _beta_cdf(mid, a, b) < q:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class TestBetaCdf:
    def test_uniform_case(self):
        # Beta(1,1) is uniform: CDF(x) = x.
        for x in (0.1, 0.5, 0.9):
            assert _beta_cdf(x, 1, 1) == pytest.approx(x, abs=1e-9)

    def test_symmetry(self):
        # Beta(a,a) is symmetric about 1/2.
        assert _beta_cdf(0.5, 3, 3) == pytest.approx(0.5, abs=1e-9)

    def test_known_value(self):
        # Beta(2,1): CDF(x) = x^2.
        assert _beta_cdf(0.6, 2, 1) == pytest.approx(0.36, abs=1e-9)

    def test_endpoints(self):
        assert _beta_cdf(0.0, 2, 3) == 0.0
        assert _beta_cdf(1.0, 2, 3) == 1.0


class TestCoverageEstimate:
    def test_point_estimate(self):
        est = coverage_estimate(90, 100)
        assert est.point == pytest.approx(0.9)

    def test_interval_contains_point(self):
        est = coverage_estimate(90, 100)
        assert est.wilson_low <= est.point <= est.wilson_high
        assert est.exact_low <= est.point <= est.exact_high

    def test_interval_shrinks_with_n(self):
        small = coverage_estimate(9, 10)
        large = coverage_estimate(900, 1000)
        assert (large.wilson_high - large.wilson_low) < (
            small.wilson_high - small.wilson_low
        )

    def test_perfect_coverage_bounds(self):
        est = coverage_estimate(50, 50)
        assert est.point == 1.0
        assert est.exact_high == 1.0
        assert est.exact_low < 1.0  # cannot claim certainty from 50 runs

    def test_zero_coverage_bounds(self):
        est = coverage_estimate(0, 50)
        assert est.point == 0.0
        assert est.exact_low == 0.0
        assert est.exact_high > 0.0

    def test_no_activations(self):
        est = coverage_estimate(0, 0)
        assert est.wilson_low == 0.0 and est.wilson_high == 1.0

    def test_higher_confidence_wider(self):
        narrow = coverage_estimate(80, 100, confidence=0.90)
        wide = coverage_estimate(80, 100, confidence=0.99)
        assert (wide.wilson_high - wide.wilson_low) > (
            narrow.wilson_high - narrow.wilson_low
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            coverage_estimate(5, 3)
        with pytest.raises(ValueError):
            coverage_estimate(-1, 3)
        with pytest.raises(ValueError):
            coverage_estimate(1, 2, confidence=1.5)

    @given(
        n=st.integers(1, 500),
        frac=st.floats(0, 1),
    )
    @settings(deadline=None, max_examples=50)
    def test_intervals_are_valid_property(self, n, frac):
        k = min(int(round(n * frac)), n)
        est = coverage_estimate(k, n)
        assert 0.0 <= est.wilson_low <= est.wilson_high <= 1.0
        assert 0.0 <= est.exact_low <= est.exact_high <= 1.0
        # Exact interval is at least as wide as Wilson's.
        assert est.exact_low <= est.wilson_low + 0.02
        assert est.exact_high >= est.wilson_high - 0.02

    def test_str(self):
        assert "Wilson" in str(coverage_estimate(9, 10))

    @given(
        n=st.integers(1, 5000),
        frac=st.floats(0, 1),
        confidence=st.sampled_from((0.8, 0.9, 0.95, 0.99)),
    )
    @settings(deadline=None, max_examples=60)
    def test_early_stop_matches_full_bisection(self, n, frac, confidence):
        k = min(int(round(n * frac)), n)
        alpha = 1 - confidence
        cases = []
        if k > 0:
            cases.append((alpha / 2, k, n - k + 1))
        if k < n:
            cases.append((1 - alpha / 2, k + 1, n - k))
        for q, a, b in cases:
            assert _beta_quantile(q, a, b) == _reference_beta_quantile(q, a, b)

    @given(
        q=st.floats(0, 1),
        a=st.floats(0.5, 200),
        b=st.floats(0.5, 200),
    )
    @settings(deadline=None, max_examples=60)
    def test_early_stop_matches_full_bisection_off_grid(self, q, a, b):
        assert _beta_quantile(q, a, b) == _reference_beta_quantile(q, a, b)

    @given(
        n=st.integers(0, 400),
        frac=st.floats(0, 1),
        confidence=st.sampled_from((0.9, 0.95)),
    )
    @settings(deadline=None, max_examples=60)
    def test_single_intervals_equal_the_estimate(self, n, frac, confidence):
        k = min(int(round(n * frac)), n)
        est = coverage_estimate(k, n, confidence)
        assert wilson_interval(k, n, confidence) == (est.wilson_low, est.wilson_high)
        assert exact_interval(k, n, confidence) == (est.exact_low, est.exact_high)


class TestLatencyStatistics:
    def test_basic(self):
        stats = latency_statistics([0, 1, 2, 3, 4])
        assert stats.count == 5
        assert stats.mean == 2.0
        assert stats.median == 2.0
        assert stats.maximum == 4.0

    def test_nones_skipped(self):
        stats = latency_statistics([1, None, 3])
        assert stats.count == 2
        assert stats.mean == 2.0

    def test_empty(self):
        stats = latency_statistics([])
        assert stats.count == 0
        assert stats.mean == 0.0


class TestEfficiencyReport:
    def test_from_validation_report(self):
        from repro.core.detector import Detector
        from repro.core.predicate import Comparison
        from repro.core.validate import ValidationCampaign
        from tests.injection.test_campaign import CounterTarget, config

        # Single-shot mode: the threshold detector is only valid at the
        # sampling point (the accumulator legitimately crosses 2.5 in
        # later occurrences, which continuous monitoring would flag).
        detector = Detector(Comparison("acc", ">", 2.5))
        campaign = ValidationCampaign(
            CounterTarget(), config(bits=(2,)), detector, mode="single"
        )
        validation = campaign.validate()
        report = detector_efficiency_report(validation)
        assert report.coverage.point == 1.0
        assert report.false_positive_rate == 0.0
        assert report.latency.count == report.coverage.detected
        assert "coverage" in str(report)
