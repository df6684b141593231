"""Bench R-9 on the Table II targets: sampled campaigns reproduce the
exhaustive records.

Runs ``sampling_campaign.py`` (next to this file) over all 18 Table II
datasets.  ``sampling_campaign.run`` compares every sampled record
with the exhaustive record of the same cell (``to_dict()`` equality)
and raises on a mismatch before it reports anything, so reaching the
assertions is the bit-identity check; they then pin that every drawn
cell was compared and that the intervals cover the exhaustive truth
at the nominal level.  The speed bar lives in
``test_bench_sampling.py`` on a 100k-cell synthetic space.
"""

import pytest

from repro.experiments import DATASET_SPECS

import sampling_campaign


@pytest.mark.bench_smoke
def test_bench_sampling_sweep_matches_exhaustive_records(benchmark, scale):
    results = benchmark.pedantic(
        lambda: sampling_campaign.run(scale), rounds=1, iterations=1
    )
    print()
    print(sampling_campaign.render(results))
    assert [entry["dataset"] for entry in results] == sorted(DATASET_SPECS)
    for entry in results:
        name = entry["dataset"]
        assert 0 < entry["cells_sampled"] <= entry["cells_total"], name
        # Every drawn cell was compared with its exhaustive record.
        assert entry["records_checked"] == entry["cells_sampled"], name
        assert entry["covered_intervals"] <= entry["estimated_intervals"], name
    intervals = sum(entry["estimated_intervals"] for entry in results)
    covered = sum(entry["covered_intervals"] for entry in results)
    # The sampler's Wilson intervals are nominally 95 %; at the fixed
    # seed the sweep covers the exhaustive truth at least that often.
    assert intervals > 0
    assert covered >= 0.95 * intervals
