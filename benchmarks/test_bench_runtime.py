"""Bench R-1: detector serving throughput (repro.runtime).

Times the compiled-vs-interpreted comparison on one Table II detector
per target system over a 10k-instance batch.  The assertions encode
the subsystem's contract: detection vectors are bit-identical across
paths (checked inside ``runtime_bench.run``) and the compiled batch
evaluator clears at least 5x interpreted throughput.  The driver,
``runtime_bench.py``, sits next to this file.
"""

import pytest

import runtime_bench


@pytest.mark.bench_smoke
def test_bench_runtime_throughput(benchmark, scale, warm_cache):
    rows = benchmark.pedantic(
        lambda: runtime_bench.run(scale, n_states=10_000),
        rounds=1,
        iterations=1,
    )
    table = runtime_bench.render(rows)
    print()
    print(table)
    by_key = {(r.dataset, r.mode): r for r in rows}
    datasets = {r.dataset for r in rows}
    assert datasets == set(runtime_bench.DEFAULT_DATASETS)
    modes = {"interpreted", "scalar", "batch", "engine"}
    assert {r.mode for r in rows} == modes
    assert all(name in table for name in datasets | modes)
    for dataset in datasets:
        interpreted = by_key[(dataset, "interpreted")]
        batch = by_key[(dataset, "batch")]
        engine = by_key[(dataset, "engine")]
        # run() already verified bit-identical flags; spot-check the
        # reported detections agree too.
        assert batch.detections == interpreted.detections
        assert engine.detections == interpreted.detections
        # The acceptance bar: compiled batch evaluation is >= 5x the
        # per-state interpreted walk (measured margin is 50-100x).
        assert batch.throughput >= 5 * interpreted.throughput, dataset
        # The full engine path (packing + metrics) must still beat
        # per-state interpretation.
        assert engine.throughput >= interpreted.throughput, dataset
