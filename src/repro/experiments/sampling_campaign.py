"""Experiment R-9: statistical sampling campaigns vs exhaustive.

For every Table II dataset, run the injection campaign twice -- once
exhaustively and once under ``Campaign.run(sampling=...)`` -- and
compare what the sample *estimated* against what the full enumeration
*measured*: per-stratum outcome-class rates, whether each confidence
interval contains the exhaustive truth, the fraction of the space
drawn, and the wall-clock ratio.  Strata the sampler exhausted are
exact by construction and excluded from the interval tally.
"""

from __future__ import annotations

import time

from repro.experiments.datasets import (
    DATASET_SPECS,
    build_target,
    campaign_config,
)
from repro.experiments.reporting import render_table
from repro.experiments.scale import Scale, get_scale
from repro.injection.campaign import Campaign
from repro.injection.sampling import SamplingSpec, outcome_class
from repro.mining.cache import clear_reuse_caches

__all__ = ["run", "main", "DEFAULT_SPEC"]

#: Smoke-scale strata are only a few dozen cells, so the stop target
#: and round size are scaled down from the benchmark's (0.02, 256) --
#: this experiment measures estimate quality against the exhaustive
#: truth; the benchmark measures speed at 100k-cell scale.
DEFAULT_SPEC = SamplingSpec(
    ci="wilson",
    target_halfwidth=0.08,
    min_cells=16,
    round_cells=16,
    seed=0,
)


def _true_rates(records) -> dict[str, dict[str, float]]:
    """Per-variable outcome-class rates of the exhaustive campaign."""
    counts: dict[str, dict[str, int]] = {}
    totals: dict[str, int] = {}
    for record in records:
        variable = record.flip.variable
        by_class = counts.setdefault(variable, {})
        cls = outcome_class(record)
        by_class[cls] = by_class.get(cls, 0) + 1
        totals[variable] = totals.get(variable, 0) + 1
    return {
        variable: {
            cls: by_class.get(cls, 0) / totals[variable]
            for cls in ("ok", "fail", "crash")
        }
        for variable, by_class in counts.items()
    }


def run(scale: Scale | str = "smoke", datasets=None, spec=DEFAULT_SPEC):
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = list(datasets) if datasets is not None else sorted(DATASET_SPECS)
    results = []
    for name in names:
        if name not in DATASET_SPECS:
            raise ValueError(f"unknown dataset {name!r}")
        dataset = DATASET_SPECS[name]
        config = campaign_config(dataset, scale)

        clear_reuse_caches()
        started = time.perf_counter()
        exhaustive = Campaign(build_target(dataset.target, scale), config).run()
        exhaustive_s = time.perf_counter() - started

        clear_reuse_caches()
        started = time.perf_counter()
        sampled = Campaign(build_target(dataset.target, scale), config).run(
            sampling=spec
        )
        sampled_s = time.perf_counter() - started

        truth = _true_rates(exhaustive.records)
        report = sampled.sampling
        intervals = covered = 0
        worst_error = 0.0
        for stratum in report.strata:
            if stratum.sampled >= stratum.population:
                continue  # exact: nothing estimated
            for cls, estimate in stratum.classes.items():
                true_rate = truth[stratum.stratum][cls]
                intervals += 1
                if estimate.low <= true_rate <= estimate.high:
                    covered += 1
                worst_error = max(worst_error, abs(estimate.rate - true_rate))
        results.append(
            {
                "dataset": name,
                "cells_total": report.cells_total,
                "cells_sampled": report.cells_sampled,
                "sampled_fraction": report.sampled_fraction,
                "rounds": report.rounds,
                "strata": len(report.strata),
                "estimated_intervals": intervals,
                "covered_intervals": covered,
                "worst_abs_error": worst_error,
                "runs_saved": report.cells_total - report.cells_sampled,
                "exhaustive_s": exhaustive_s,
                "sampled_s": sampled_s,
                "speedup": exhaustive_s / sampled_s if sampled_s else 0.0,
            }
        )
    return results


def main(scale: Scale | str = "smoke", datasets=None) -> str:
    results = run(scale, datasets)
    rows = []
    for entry in results:
        coverage = (
            f"{entry['covered_intervals']}/{entry['estimated_intervals']}"
            if entry["estimated_intervals"]
            else "exact"
        )
        rows.append(
            [
                entry["dataset"],
                str(entry["cells_total"]),
                str(entry["cells_sampled"]),
                f"{entry['sampled_fraction']:.0%}",
                str(entry["rounds"]),
                coverage,
                f"{entry['worst_abs_error']:.3f}",
                str(entry["runs_saved"]),
                f"{entry['speedup']:.1f}x",
            ]
        )
    intervals = sum(e["estimated_intervals"] for e in results)
    covered = sum(e["covered_intervals"] for e in results)
    saved = sum(e["runs_saved"] for e in results)
    total = sum(e["cells_total"] for e in results)
    table = render_table(
        ["Dataset", "Cells", "Drawn", "Frac", "Rnds",
         "CI cover", "MaxErr", "Saved", "Speedup"],
        rows,
        title=(
            f"R-9 sampled vs exhaustive campaigns "
            f"[{DEFAULT_SPEC.ci}, {DEFAULT_SPEC.confidence:.0%} CI, "
            f"half-width <= {DEFAULT_SPEC.target_halfwidth}]"
        ),
    )
    summary = (
        f"  intervals containing the exhaustive truth: {covered}/{intervals}"
        f" ({covered / intervals:.1%})\n" if intervals else ""
    ) + f"  runs saved across datasets: {saved}/{total} ({saved / total:.1%})"
    output = f"{table}\n{summary}"
    print(output)
    return output
