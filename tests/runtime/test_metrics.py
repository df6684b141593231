"""Metrics layer: histogram quantiles, snapshots, report export."""

import json

import pytest

from repro.runtime.metrics import (
    DetectorStats,
    LatencyHistogram,
    RuntimeMetrics,
)


class TestLatencyHistogram:
    def test_empty(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.quantile(0.5) == 0.0

    def test_single_sample_is_exact(self):
        histogram = LatencyHistogram()
        histogram.observe(0.004)
        snapshot = histogram.snapshot()
        assert snapshot["min"] == snapshot["max"] == 0.004
        assert snapshot["p50"] == snapshot["p99"] == 0.004

    def test_quantiles_are_monotone_and_bounded(self):
        histogram = LatencyHistogram()
        for i in range(1, 1001):
            histogram.observe(i * 1e-5)  # 10 us .. 10 ms
        p50, p95, p99 = (histogram.quantile(q) for q in (0.5, 0.95, 0.99))
        assert p50 <= p95 <= p99
        assert histogram.minimum <= p50
        assert p99 <= histogram.maximum
        # Bucket resolution is ~18%: estimates land near the truth.
        assert p50 == pytest.approx(0.005, rel=0.25)
        assert p99 == pytest.approx(0.0099, rel=0.25)

    def test_mean_and_extremes(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.003, 0.002):
            histogram.observe(value)
        assert histogram.mean == pytest.approx(0.002)
        assert histogram.minimum == 0.001
        assert histogram.maximum == 0.003

    def test_rejects_garbage_silently(self):
        histogram = LatencyHistogram()
        histogram.observe(-1.0)
        histogram.observe(float("nan"))
        histogram.observe(float("inf"))
        assert histogram.count == 0

    def test_overflow_bucket(self):
        histogram = LatencyHistogram()
        histogram.observe(1000.0)  # beyond the last bound
        assert histogram.overflow == 1
        assert histogram.quantile(0.5) == 1000.0

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)


class TestDetectorStats:
    def test_record_batch_accumulates(self):
        stats = DetectorStats("d")
        stats.record_batch(100, 7, 0.010)
        stats.record_batch(50, 3, 0.005)
        snapshot = stats.snapshot()
        assert snapshot["evaluations"] == 150
        assert snapshot["detections"] == 10
        assert snapshot["batches"] == 2
        assert snapshot["detection_rate"] == pytest.approx(10 / 150)
        assert snapshot["per_state"] == pytest.approx(0.015 / 150)

    def test_faults_counted(self):
        stats = DetectorStats("d")
        stats.record_fault()
        assert stats.snapshot()["faults"] == 1


class TestRuntimeMetrics:
    def test_stats_for_is_idempotent(self):
        metrics = RuntimeMetrics()
        assert metrics.stats_for("a") is metrics.stats_for("a")
        assert "a" in metrics

    def test_report_is_json_exportable(self):
        metrics = RuntimeMetrics()
        metrics.stats_for("a").record_batch(10, 2, 0.001)
        metrics.stats_for("b").record_fault()
        report = metrics.report()
        text = json.dumps(report)  # plain dict, no custom types
        assert "p95" in text
        assert report["totals"] == {
            "evaluations": 10,
            "detections": 2,
            "faults": 1,
            "batches": 1,
            "seconds": pytest.approx(0.001),
        }

    def test_reset(self):
        metrics = RuntimeMetrics()
        metrics.stats_for("a")
        metrics.reset()
        assert "a" not in metrics

