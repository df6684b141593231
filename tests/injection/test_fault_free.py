"""One stepping of the fault-free run is the only source of its golden
run, trail and checkpoints (:func:`repro.injection.golden.fault_free_run`).

On every smoke-scale Table II target and test case, the stepping's
:class:`~repro.injection.golden.GoldenRun` must equal a plain
:func:`~repro.injection.golden.capture_golden_run` (output and every
sample), and its trail must equal the counting-only stepping of the
reference (``tests/injection/_replay.py``): recording samples must not
change a state digest or a probe count.
"""

from __future__ import annotations

import pytest

from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.experiments.scale import get_scale
from repro.injection.golden import capture_golden_run, fault_free_run
from repro.mining.cache import reuse_caches_disabled

from tests.injection._replay import counting_trail


def _smoke_cases() -> list[tuple[str, int]]:
    scale = get_scale("smoke")
    cases = set()
    for spec in DATASET_SPECS.values():
        for tc in campaign_config(spec, scale).test_cases:
            cases.add((spec.target, tc))
    return sorted(cases)


@pytest.mark.parametrize("target_name, test_case", _smoke_cases())
def test_stepping_matches_capture_and_counting_trail(target_name, test_case):
    target = build_target(target_name, get_scale("smoke"))
    with reuse_caches_disabled():
        run = fault_free_run(target, test_case)
    assert run.golden == capture_golden_run(target, test_case)
    digests, counts = counting_trail(target, test_case)
    assert run.trail.digests == digests
    assert run.trail.counts == counts
    assert len(run.states) == len(counts)
