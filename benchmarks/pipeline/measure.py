"""Statistics and trace accounting for the pipeline benchmark.

Nothing here touches the program under test: these helpers turn the
benchmark's own timings and the spans of a traced run into the metric
values that ``run.py`` prints and ``compare.py`` judges.
"""

from __future__ import annotations

import bisect
import json
import math
import pathlib
import statistics
import time

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Percentiles a tail is reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: Paced timings read as seconds on a host whose pace kernel takes this long.
REF_PACE_S = 1e-3
#: A pace sample is due once this long has passed since the last one.
PACE_EVERY_S = 0.2


def _pace_kernel() -> float:
    """Seconds of a fixed interpreter-bound loop (~1 ms): dict and float work."""
    started = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(4000):
        key = i & 63
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += table[key] % 3.0
    return time.perf_counter() - started


class Pace:
    """The host's speed, sampled between timed steps.

    Other tenants of a shared host slow the steps of a run, for seconds
    to minutes at a time.  A pace sample -- the fastest of three runs of
    a fixed kernel -- is taken between steps at most every
    ``PACE_EVERY_S``, and ``paced`` rescales a step's seconds by the
    kernel's time around it, to what the step takes on a host that runs
    the kernel in ``REF_PACE_S``.  A slower program still reads slower;
    a slower host mostly does not (README, "Bounds").
    """

    def __init__(self, probe=_pace_kernel, every: float = PACE_EVERY_S) -> None:
        self._probe = probe
        self._every = every
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        before = time.perf_counter()
        seconds = min(self._probe() for _ in range(3))
        self.times.append((before + time.perf_counter()) / 2)
        self.samples.append(seconds)

    def tick(self) -> None:
        """Take a sample if one is due; call it between timed steps."""
        if not self.times or time.perf_counter() - self.times[-1] >= self._every:
            self.sample()

    def paced(self, seconds: float, started: float) -> float:
        """``seconds`` of a step that began at ``started``, at the reference pace.

        The pace is the mean of the last sample before the step and the
        first after it (the nearest one at either end of the run).
        """
        if not self.samples:
            raise ValueError("no pace sample taken")
        after = bisect.bisect_left(self.times, started + seconds)
        before = bisect.bisect_right(self.times, started) - 1
        around = [self.samples[i] for i in (before, after) if 0 <= i < len(self.samples)]
        return seconds * REF_PACE_S / statistics.fmean(around or self.samples)


def load_catalog() -> dict:
    """The benchmark description: workloads, metrics, units and bounds."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail_percentile(samples, min_beyond: int = 10) -> tuple[float, float]:
    """The highest ladder percentile with at least ``min_beyond`` samples
    beyond it, as ``(percentile, value)`` by the nearest-rank rule.

    Raises ``ValueError`` when even the median has too few samples
    beyond it: a tail read off fewer points is one outlier, not a tail.
    """
    ordered = sorted(float(s) for s in samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = -(-round(pct * 10) * n // 1000)  # ceil(pct% of n), exact in integers
        if rank >= 1 and n - rank >= min_beyond:
            return pct, ordered[rank - 1]
    raise ValueError(
        f"{n} samples leave fewer than {min_beyond} beyond the median"
    )


# ----------------------------------------------------------------------
# Per-layer accounting from one traced run
# ----------------------------------------------------------------------
PASS_SPAN = "bench.pass"
LAYER_PREFIXES = {
    "injection": "bench.injection.",
    "core": "bench.core.",
    "runtime": "bench.runtime.",
}
STORE_FETCH = "bench.injection.store.fetch"
STORE_PUT = "bench.injection.store.put"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, extras: dict) -> dict[str, float]:
    """Per-layer metrics of the traced passes, per pass.

    ``spans`` are the span records of the traced passes only (each
    rooted at a ``bench.pass`` span); ``extras`` carries what spans
    cannot say -- the untraced and traced pass times, and the serving
    engine's own per-detector time.
    """
    from repro.observability import summarize

    summary = summarize(list(spans))
    names = summary.names
    passes = names[PASS_SPAN].count if PASS_SPAN in names else 0
    per = 1.0 / passes if passes else 0.0

    def total(name: str) -> float:
        stats = names.get(name)
        return stats.total_s * per if stats else 0.0

    def count(name: str) -> float:
        stats = names.get(name)
        return stats.count * per if stats else 0.0

    def counter(name: str, key: str) -> float:
        stats = names.get(name)
        return stats.counters.get(key, 0) * per if stats else 0.0

    golden_s = total("bench.injection.golden_runs_for")
    fetch_s, put_s = total(STORE_FETCH), total(STORE_PUT)
    campaign_s = total("bench.injection.campaign_run") - fetch_s - put_s
    cells = counter("campaign.shard", "runs")
    captured = counter("bench.injection.golden_runs_for", "cache.golden.misses")
    cache_hits = cache_misses = 0.0
    for key, value in summary.counters.items():
        if key.startswith("cache.") and not key.startswith("cache.golden."):
            if key.endswith(".hits"):
                cache_hits += value
            elif key.endswith(".misses"):
                cache_misses += value
    fits, fit_s = count("c45.fit"), total("c45.fit")
    batch_s = total("bench.runtime.evaluate_batch")
    evaluate_s = extras.get("evaluate_s", 0.0)

    pass_total = total(PASS_SPAN)
    children = {prefix: 0.0 for prefix in LAYER_PREFIXES}
    pass_ids = {
        (record.pid, record.span_id) for record in spans if record.name == PASS_SPAN
    }
    covered = 0.0
    for record in spans:
        if (record.pid, record.parent_id) not in pass_ids:
            continue
        covered += record.duration_s * per
        for layer, prefix in LAYER_PREFIXES.items():
            if record.name.startswith(prefix):
                children[layer] += record.duration_s * per

    untraced, traced = extras.get("untraced_pass_s", 0.0), extras.get("traced_pass_s", 0.0)
    return {
        "injection.golden_s": golden_s,
        "injection.campaign_s": campaign_s,
        "injection.cells_executed": cells,
        "injection.cells_per_s": _ratio(cells, campaign_s),
        # ZOFI's overhead measure: cost of one injected cell relative to
        # the cost of one fault-free (golden) run of a test case.
        "injection.overhead_ratio": _ratio(
            _ratio(campaign_s, cells), _ratio(golden_s, captured)
        ),
        "injection.readout_s": total("bench.injection.to_dataset"),
        "injection.store.put_s": put_s,
        "injection.store.puts": count(STORE_PUT),
        "injection.store.bytes": counter(STORE_PUT, "bytes"),
        "injection.store.fetch_s": fetch_s,
        "injection.store.fetches": count(STORE_FETCH),
        "injection.store.hit_ratio": _ratio(
            counter(STORE_FETCH, "hits"), count(STORE_FETCH)
        ),
        "orchestration.plan_s": total("campaign.plan"),
        "orchestration.merge_s": total("campaign.merge"),
        "orchestration.shards": sum(
            record.attributes.get("shards", 0)
            for record in spans
            if record.name == "campaign.merge"
        )
        * per,
        "core.baseline_s": total("phase.baseline"),
        "core.refine_s": total("phase.refine"),
        "core.finalize_s": total("phase.finalize"),
        "core.trials": count("refine.trial"),
        "mining.fit_s": fit_s,
        "mining.fits": fits,
        "mining.trees_per_s": _ratio(fits, fit_s),
        "mining.crossval_fold_s": total("crossval.fold"),
        "mining.resample_s": total("sampling.apply"),
        "mining.cache.hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "runtime.pack_s": max(batch_s - evaluate_s, 0.0),
        "runtime.evaluate_s": evaluate_s,
        "runtime.compile_s": total("bench.runtime.compile_predicate")
        + total("bench.runtime.swap"),
        "runtime.detections": counter("engine.batch", "detections"),
        "runtime.faults": counter("engine.batch", "faults"),
        "share.injection": _ratio(children["injection"], pass_total),
        "share.core": _ratio(children["core"], pass_total),
        "share.runtime": _ratio(children["runtime"], pass_total),
        "observability.overhead_frac": _ratio(traced, untraced) - 1.0 if untraced else 0.0,
        "observability.coverage": _ratio(covered, pass_total),
    }
