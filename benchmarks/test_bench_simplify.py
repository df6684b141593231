"""Bench R-2: static simplification of mined detectors (repro.analysis).

Simplifies one C4.5 and one Prism detector per target system and times
both compiled forms on the dataset's states.  ``simplify_bench.run``
refuses to report unless every detection vector -- original compiled,
simplified compiled -- is bit-identical to the interpreted original,
so reaching the assertions is the bit-identity check.  The benchmark
script, ``simplify_bench.py``, sits next to this file.
"""

import itertools

import pytest

import simplify_bench


def _run(benchmark, scale):
    rows = benchmark.pedantic(lambda: simplify_bench.run(scale), rounds=1, iterations=1)
    print()
    print(simplify_bench.render(rows))
    return rows


@pytest.mark.bench_smoke
def test_bench_simplify_bit_identity(benchmark, scale):
    rows = _run(benchmark, scale)
    assert {(r.dataset, r.learner) for r in rows} == set(
        itertools.product(simplify_bench.DEFAULT_DATASETS, simplify_bench.DEFAULT_LEARNERS)
    )
    for row in rows:
        # Simplification never adds atoms.
        assert row.atoms_after <= row.atoms_before, (row.dataset, row.learner)


def test_bench_simplify_reduces_a_detector(benchmark, scale):
    # Smoke-scale detectors are already minimal (0 of 6 reduced), so
    # the acceptance bar is asserted on the bench-scale detectors.
    if scale.name == "smoke":
        pytest.skip("the reduction bar is measured at bench scale")
    rows = _run(benchmark, scale)
    assert any(row.atoms_after < row.atoms_before for row in rows)
