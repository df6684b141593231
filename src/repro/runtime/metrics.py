"""Runtime observability for served detectors.

DETOx-style experience (PAPERS.md) is that detector configurations are
only worth deploying when their runtime cost is continuously measured;
this module is the measuring half of the serving engine:

* per-detector **evaluation counts** (states checked), **detection
  counts** (states flagged) and **fault counts** (batches lost to a
  crashing predicate);
* per-detector **latency histograms** over fixed log-spaced buckets
  (about 18% resolution from 100 ns to ~85 s), answering p50/p95/p99
  without storing samples -- constant memory no matter the traffic;
* a plain-dict :meth:`RuntimeMetrics.report` suitable for JSON export
  or a scrape endpoint, no collector dependency.

Latencies are recorded per micro-batch (the engine's unit of work);
``per_state`` in the report divides by the states served so the two
cost views -- batch overhead and amortised per-check cost -- are both
visible.
"""

from __future__ import annotations

import bisect
import dataclasses
import math

__all__ = [
    "LatencyHistogram",
    "DetectorStats",
    "RuntimeMetrics",
]


def _default_bounds() -> tuple[float, ...]:
    """Log-spaced bucket upper bounds: 1e-7 s .. ~85 s, ratio ~1.18."""
    bounds = []
    value = 1e-7
    while value < 100.0:
        bounds.append(value)
        value *= 1.18
    return tuple(bounds)


_BOUNDS = _default_bounds()


class LatencyHistogram:
    """Fixed-bucket latency histogram with quantile estimation."""

    __slots__ = ("bounds", "counts", "overflow", "count", "total",
                 "minimum", "maximum")

    def __init__(self, bounds: tuple[float, ...] = _BOUNDS) -> None:
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0

    def observe(self, seconds: float) -> None:
        if seconds < 0.0 or not math.isfinite(seconds):
            return
        self.count += 1
        self.total += seconds
        self.minimum = min(self.minimum, seconds)
        self.maximum = max(self.maximum, seconds)
        slot = bisect.bisect_left(self.bounds, seconds)
        if slot >= len(self.bounds):
            self.overflow += 1
        else:
            self.counts[slot] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (bucket upper bound, edge-exact)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = 0
        for slot, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank and bucket_count:
                # Clamp the bucket bound into the observed range so
                # degenerate histograms (all samples equal) stay exact.
                return min(max(self.bounds[slot], self.minimum),
                           self.maximum)
        return self.maximum

    def snapshot(self) -> dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


@dataclasses.dataclass
class DetectorStats:
    """Counters and latency for one served detector."""

    name: str
    evaluations: int = 0
    detections: int = 0
    faults: int = 0
    batches: int = 0
    latency: LatencyHistogram = dataclasses.field(
        default_factory=LatencyHistogram
    )

    def record_batch(
        self, states: int, detections: int, seconds: float
    ) -> None:
        self.batches += 1
        self.evaluations += states
        self.detections += detections
        self.latency.observe(seconds)

    def record_fault(self) -> None:
        self.faults += 1

    def snapshot(self) -> dict[str, object]:
        latency = self.latency.snapshot()
        per_state = (
            self.latency.total / self.evaluations if self.evaluations else 0.0
        )
        return {
            "evaluations": self.evaluations,
            "detections": self.detections,
            "faults": self.faults,
            "batches": self.batches,
            "detection_rate": (
                self.detections / self.evaluations if self.evaluations else 0.0
            ),
            "latency": latency,
            "per_state": per_state,
        }


class RuntimeMetrics:
    """Metrics for a fleet of served detectors."""

    def __init__(self) -> None:
        self._stats: dict[str, DetectorStats] = {}

    def stats_for(self, name: str) -> DetectorStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = DetectorStats(name)
        return stats

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def reset(self) -> None:
        self._stats.clear()

    def report(self) -> dict[str, object]:
        """Plain-dict export: per-detector snapshots plus totals."""
        detectors = {
            name: stats.snapshot()
            for name, stats in sorted(self._stats.items())
        }
        totals = {
            "evaluations": sum(s.evaluations for s in self._stats.values()),
            "detections": sum(s.detections for s in self._stats.values()),
            "faults": sum(s.faults for s in self._stats.values()),
            "batches": sum(s.batches for s in self._stats.values()),
            "seconds": sum(s.latency.total for s in self._stats.values()),
        }
        return {"detectors": detectors, "totals": totals}
