"""Bench R-7: static injection-space pruning (repro.analysis.prune).

Times one seed-target campaign (7Z-B3: the LDecode exit/exit dataset,
whose exit state is mostly write-only) exhaustively and under
``prune="static"`` with the default 5% audit enabled.  The pruned run
pays for the dataflow analysis, the per-bit channel signatures, the
record synthesis and the audit re-injections -- the speedup measures
the whole pipeline against the whole exhaustive loop, not just runs
skipped.  Both sides are timed warm: one untimed run of each fills
the golden-run cache and finishes lazy imports first, because timing
one side cold would charge it the golden capture the other then
reuses, and the ratio would depend on which side ran first.  A single
run takes under a tenth of a second at smoke scale, so the ratio is
taken between the medians of alternating timed pairs.

The assertions encode the subsystem's contract: the pruned outcome
table is bit-identical to the exhaustive one (``to_dict()`` equality,
canonical order included), the audit re-injects a real sample with
zero contradictions, and the wall-clock speedup clears the >= 1.5x
acceptance bar of EXPERIMENTS.md R-7.
"""

import dataclasses
import json
import os
import statistics
import time

import pytest

from repro.experiments.datasets import (
    DATASET_SPECS,
    build_target,
    campaign_config,
)
from repro.injection.campaign import Campaign

DATASET = "7Z-B3"
#: Timed (exhaustive, pruned) pairs per side.
PAIRS = 5


def _campaign(scale, **overrides):
    spec = DATASET_SPECS[DATASET]
    config = dataclasses.replace(campaign_config(spec, scale), **overrides)
    return Campaign(build_target(spec.target, scale), config)


def _timed(scale, **overrides):
    campaign = _campaign(scale, **overrides)
    started = time.perf_counter()
    result = campaign.run()
    return time.perf_counter() - started, result


def _timed_pairs(scale):
    """Seconds of ``PAIRS`` exhaustive and pruned runs, alternating
    which side runs first, after one warm-up run of each."""
    sides = {"exhaustive": {}, "pruned": {"prune": "static"}}
    seconds = {side: [] for side in sides}
    results = {side: _timed(scale, **sides[side])[1] for side in sides}
    for index in range(PAIRS):
        order = list(sides) if index % 2 == 0 else list(reversed(sides))
        for side in order:
            elapsed, results[side] = _timed(scale, **sides[side])
            seconds[side].append(elapsed)
    return seconds, results


@pytest.mark.bench_smoke
def test_bench_prune_speedup(benchmark, scale):
    seconds, results = benchmark.pedantic(
        lambda: _timed_pairs(scale), rounds=1, iterations=1
    )
    exhaustive, pruned = results["exhaustive"], results["pruned"]
    exhaustive_s = statistics.median(seconds["exhaustive"])
    pruned_s = statistics.median(seconds["pruned"])
    speedup = exhaustive_s / pruned_s
    info = pruned.prune
    audit = info["audit"]

    print()
    print(
        f"prune {DATASET} @ {scale.name}: exhaustive {exhaustive_s:.2f}s, "
        f"pruned {pruned_s:.2f}s ({speedup:.1f}x); "
        f"{info['runs_pruned']}/{info['runs_planned']} runs pruned "
        f"({info['pruned_fraction']:.0%}), {audit['audited']} audited"
    )

    artifact = os.environ.get("REPRO_BENCH_PRUNE_JSON")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "dataset": DATASET,
                    "scale": scale.name,
                    "exhaustive_s": exhaustive_s,
                    "pruned_s": pruned_s,
                    "exhaustive_runs_s": seconds["exhaustive"],
                    "pruned_runs_s": seconds["pruned"],
                    "speedup": speedup,
                    "runs_planned": info["runs_planned"],
                    "runs_executed": info["runs_executed"],
                    "runs_pruned": info["runs_pruned"],
                    "pruned_fraction": info["pruned_fraction"],
                    "audited": audit["audited"],
                    "contradictions": audit["contradictions"],
                },
                handle,
                indent=2,
            )

    # Contract first: the pruned table is bit-identical to exhaustive.
    assert [r.to_dict() for r in pruned.records] == [
        r.to_dict() for r in exhaustive.records
    ]
    # The audit actually sampled pruned cells, and none contradicted.
    assert audit["audited"] > 0
    assert audit["contradictions"] == 0
    assert info["runs_pruned"] > 0
    # The R-7 acceptance bar: >= 1.5x end-to-end on the seed target.
    assert speedup >= 1.5, f"speedup {speedup:.2f}x below the 1.5x bar"
