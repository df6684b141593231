"""Bench R-10 on the Table II targets: the campaign store after a
representative module edit.

Runs ``store_sweep.py`` (next to this file) over all 18 Table II
datasets: every campaign is stored, module A of each target gains one
unused definition, and every campaign re-runs against the store.  The
edit moves fingerprints, not behaviour, so every warm record table
must equal the cold one (0 divergences); the datasets of the edited
modules must re-execute every shard, and those of the unedited
modules (the B modules) must reload every shard and execute none.
The speed bar lives in ``test_bench_store.py`` on an 8-module
synthetic target.
"""

import pytest

from repro.experiments import DATASET_SPECS

import store_sweep


@pytest.mark.bench_smoke
def test_bench_store_sweep_reuses_unedited_modules(benchmark, scale):
    results = benchmark.pedantic(
        lambda: store_sweep.run(scale), rounds=1, iterations=1
    )
    print()
    print(store_sweep.render(results))
    assert [entry["dataset"] for entry in results] == sorted(DATASET_SPECS)
    for entry in results:
        name = entry["dataset"]
        assert entry["shards"] > 0, name
        assert entry["divergences"] == 0, name
        if entry["edited"]:
            assert entry["reused"] == 0, name
            assert entry["executed"] == entry["shards"], name
        else:
            assert entry["executed"] == 0, name
            assert entry["reused"] == entry["shards"], name
    # One module per target is edited: both kinds are exercised.
    assert {entry["edited"] for entry in results} == {True, False}
