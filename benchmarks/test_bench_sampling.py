"""Bench R-9: statistical sampling campaigns (repro.injection.sampling).

Times one synthetic wide campaign -- 8 int64 variables x 64 bits x 196
test cases = 100,352 cells -- exhaustively and under
``sampling=SPEC`` at a 0.02 CI half-width stop target.  The sampled
run pays for the stratified draw plan and the per-round interval
updates; the speedup measures the whole sampled pipeline against the
whole exhaustive loop.

The assertions encode the subsystem's contract *before* the speedup
bar is judged: every sampled record is bit-identical to the exhaustive
campaign's record for the same (variable, bit, time, test case) cell,
every stratum reached the stop target, and only then does the
wall-clock ratio get compared against the >= 5x acceptance bar of
EXPERIMENTS.md R-9.
"""

import json
import os
import time

import pytest

from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.instrument import Harness, Location, VariableSpec
from repro.injection.sampling import SamplingSpec
from repro.mining.cache import clear_reuse_caches
from repro.targets.base import TargetSystem

#: Bits of an int64 whose corruption the output sum exposes: 3 of 64,
#: a ~4.7% deterministic failure rate per stratum -- far enough from
#: 0.5 that the 0.02-half-width stop needs only a few rounds.
SENSITIVE_MASK = (1 << 3) | (1 << 31) | (1 << 62)

VARIABLES = tuple(f"v{i}" for i in range(8))
TEST_CASES = tuple(range(196))


class WideTarget(TargetSystem):
    """Eight int64 variables, one probe, O(1) per run: the cheapest
    target that still spans a >= 100k-cell injection space."""

    name = "WD"

    @property
    def modules(self):
        return ("Wide",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        return tuple(VariableSpec(name, "int64") for name in VARIABLES)

    def run(self, test_case, harness: Harness):
        state = harness.probe(
            "Wide",
            Location.ENTRY,
            {name: test_case * 977 for name in VARIABLES},
        )
        return sum(int(state[name]) & SENSITIVE_MASK for name in VARIABLES)

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output


CONFIG = CampaignConfig(
    module="Wide",
    injection_location=Location.ENTRY,
    sample_location=Location.ENTRY,
    test_cases=TEST_CASES,
    injection_times=(0,),
)

SPEC = SamplingSpec(
    ci="wilson",
    target_halfwidth=0.02,
    min_cells=64,
    round_cells=256,
    seed=7,
)


def _timed(**kwargs):
    clear_reuse_caches()  # both runs capture their own golden runs
    campaign = Campaign(WideTarget(), CONFIG)
    started = time.perf_counter()
    result = campaign.run(**kwargs)
    return time.perf_counter() - started, result


@pytest.mark.bench_smoke
def test_bench_sampling_speedup(benchmark):
    exhaustive_s, exhaustive = _timed()
    cells_total = len(exhaustive.records)
    assert cells_total >= 100_000

    sampled_s, sampled = benchmark.pedantic(
        lambda: _timed(sampling=SPEC), rounds=1, iterations=1
    )
    report = sampled.sampling

    # Contract first: the sampled subset is bit-identical to the
    # exhaustive table, and every stratum converged at the target.
    table = {
        (r.flip.variable, r.flip.bit, r.injection_time, r.test_case): r.to_dict()
        for r in exhaustive.records
    }
    for record in sampled.records:
        key = (
            record.flip.variable,
            record.flip.bit,
            record.injection_time,
            record.test_case,
        )
        assert record.to_dict() == table[key]
    assert all(s.stopped == "converged" for s in report.strata)
    assert all(s.halfwidth <= SPEC.target_halfwidth for s in report.strata)

    speedup = exhaustive_s / sampled_s
    print()
    print(
        f"sampling WD @ {cells_total} cells: exhaustive {exhaustive_s:.2f}s, "
        f"sampled {sampled_s:.2f}s ({speedup:.1f}x); "
        f"{report.cells_sampled}/{report.cells_total} cells drawn "
        f"({report.sampled_fraction:.1%}) in {report.rounds} round(s)"
    )

    artifact = os.environ.get("REPRO_BENCH_SAMPLING_JSON")
    if artifact:
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "target": WideTarget.name,
                    "cells_total": report.cells_total,
                    "cells_sampled": report.cells_sampled,
                    "sampled_fraction": report.sampled_fraction,
                    "rounds": report.rounds,
                    "ci": SPEC.ci,
                    "target_halfwidth": SPEC.target_halfwidth,
                    "exhaustive_s": exhaustive_s,
                    "sampled_s": sampled_s,
                    "speedup": speedup,
                    "strata": [
                        {
                            "stratum": s.stratum,
                            "sampled": s.sampled,
                            "halfwidth": s.halfwidth,
                            "stopped": s.stopped,
                        }
                        for s in report.strata
                    ],
                },
                handle,
                indent=2,
            )

    # The R-9 acceptance bar: >= 5x end-to-end at the 0.02 stop target.
    assert speedup >= 5.0, f"speedup {speedup:.2f}x below the 5x bar"
