"""Bench R-4: mining data-plane throughput (repro.mining).

Times the presorted C4.5 data plane against the seed implementation
(per-node sorting, per-row descent, no reuse caches; the engine kept
as the test oracle in ``tests/mining/_c45_reference.py``) on the
program-state workload of ``mining_bench.py``, which sits next to
this file.  The contract checks run *inside* ``mining_bench.run`` --
trees, class distributions and refinement rankings are verified
bit-identical against the reference before any timing is reported --
so the assertions here only encode the throughput bars.

Measured margins (EXPERIMENTS.md R-4): batch distribution 14-18x,
induction 2.3-4.2x, end-to-end refinement 2.2-2.3x.  The refinement
target of the original plan was 3x; the measured ceiling is the shared
array-throughput floor analysed in docs/mining-performance.md, so the
asserted bar is the conservative 1.5x.
"""

from __future__ import annotations

import json
import os

import pytest

import mining_bench


@pytest.mark.bench_smoke
def test_bench_mining_data_plane(benchmark, scale):
    rows = benchmark.pedantic(
        lambda: mining_bench.run(scale),
        rounds=1,
        iterations=1,
    )
    print()
    print(mining_bench.render(rows))
    by_stage = {row.stage: row for row in rows}
    assert set(by_stage) == {"fit", "distribution", "refine"}

    artifact = os.environ.get("REPRO_BENCH_JSON")
    if artifact:
        payload = {
            row.stage: {
                "detail": row.detail,
                "baseline_s": row.baseline_s,
                "optimized_s": row.optimized_s,
                "speedup": row.speedup,
            }
            for row in rows
        }
        with open(artifact, "w", encoding="utf-8") as handle:
            json.dump({"scale": scale.name, "stages": payload}, handle, indent=2)

    # Level-order batch routing vs per-row recursive descent: the
    # acceptance bar is >= 5x (measured margin 14-18x).
    assert by_stage["distribution"].speedup >= 5.0
    # Presorted induction vs per-node sorting (measured 2.3-4.2x).
    assert by_stage["fit"].speedup >= 1.5
    # End-to-end Step 4 sweep vs the seed path (measured 2.2-2.3x; see
    # the module docstring for why the bar sits below the 3x target).
    assert by_stage["refine"].speedup >= 1.5
