"""Benchmark configuration.

Benchmarks default to the "smoke" scale so ``pytest benchmarks/
--benchmark-only`` completes in a few minutes on a laptop; set
``REPRO_BENCH_SCALE=bench`` to reproduce the EXPERIMENTS.md numbers
(tens of minutes; campaign shards are kept in the campaign store after
the first run, so repeated invocations time only the analysis).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import DATASET_SPECS, generate_dataset, get_scale


def pytest_report_header(config):
    return f"repro benchmark scale: {_scale_name()}"


def _scale_name() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "smoke")


@pytest.fixture(scope="session")
def scale():
    return get_scale(_scale_name())


@pytest.fixture(scope="session")
def warm_cache(scale):
    """Generate (or load) every Table II dataset once, up front, so the
    table benchmarks time the mining pipeline rather than disk/campaign
    work on first touch."""
    for name in sorted(DATASET_SPECS):
        generate_dataset(name, scale)
    return True
