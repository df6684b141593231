"""Bench R-3: parallel campaign execution (repro.orchestration).

Times one latency-bound injection campaign serially and on a 4-worker
:class:`~repro.orchestration.ProcessPool`.  The target models the
dominant cost of a real campaign -- waiting on an external binary to
run one injected test case -- with a fixed sleep per run, so the
speedup measures the orchestration layer's scheduling rather than this
machine's core count (CI runners and the reference container expose a
single CPU, where a compute-bound workload cannot speed up at all).

The assertions encode the subsystem's contract: the merged parallel
result is bit-identical to the serial one, and 4 workers clear a >= 2x
wall-clock speedup on the wait-bound workload.

A second case runs real targets: the storeless smoke campaigns of
FG-A1, MG-B1 and 7Z-A1, serially and on a 2-worker pool.  Their records
must be equal, and every shard's pickled arguments must stay under
4 KiB: workers take golden runs and checkpoints from their own
fault-free runs, so the arguments do not grow with them.  The wall
clock of both sides is printed, not gated: on a 2-vCPU host the pool
ran 1.17-1.48x faster in five runs and 0.89x in a sixth, too thin a
margin for a gate that must not flake (EXPERIMENTS.md R-3).
"""

import pickle
import time

import pytest

from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.experiments.scale import get_scale
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.instrument import Harness, Location, VariableSpec
from repro.mining.cache import clear_reuse_caches
from repro.orchestration import ProcessPool, SerialPool
from repro.orchestration.campaigns import run_campaign
from repro.targets.base import TargetSystem


class WaitBoundTarget(TargetSystem):
    """Each run waits ``delay`` seconds, like an external binary would."""

    name = "WB"
    delay = 0.02

    @property
    def modules(self):
        return ("Acc",)

    def variables_of(self, module, location=None):
        self.check_module(module)
        return (VariableSpec("acc", "int32"), VariableSpec("scratch", "int32"))

    def run(self, test_case, harness: Harness):
        time.sleep(self.delay)
        acc = test_case
        for step in range(4):
            state = harness.probe(
                "Acc", Location.ENTRY, {"acc": acc, "scratch": 0}
            )
            acc = int(state["acc"]) + step
        return acc

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output


CONFIG = CampaignConfig(
    module="Acc",
    injection_location=Location.ENTRY,
    sample_location=Location.ENTRY,
    test_cases=(0, 1, 2),
    injection_times=(1, 2),
    bits=(0, 1, 2, 3),
)


def _timed_run(pool=None):
    campaign = Campaign(WaitBoundTarget(), CONFIG)
    started = time.perf_counter()
    result = campaign.run(pool=pool) if pool is not None else campaign.run()
    return time.perf_counter() - started, result


@pytest.mark.bench_smoke
def test_bench_orchestration_speedup(benchmark):
    serial_seconds, serial = _timed_run()

    def parallel_run():
        with ProcessPool(4, backoff=0) as pool:
            return _timed_run(pool=pool)

    parallel_seconds, parallel = benchmark.pedantic(
        parallel_run, rounds=1, iterations=1
    )
    speedup = serial_seconds / parallel_seconds
    print()
    print(
        f"orchestration: {serial.n_runs} runs, serial {serial_seconds:.2f}s, "
        f"4 workers {parallel_seconds:.2f}s ({speedup:.1f}x)"
    )
    # Contract first: parallel merge is bit-identical to the serial run.
    assert parallel.records == serial.records
    assert parallel.orchestration["jobs"] == 4
    assert parallel.orchestration["quarantined"] == []
    # The acceptance bar: >= 2x at 4 workers on the wait-bound campaign.
    assert speedup >= 2.0, f"speedup {speedup:.2f}x below the 2x bar"


REAL_DATASETS = ("FG-A1", "MG-B1", "7Z-A1")


class _ArgSizes:
    """Records the pickled size of every task's arguments a pool runs."""

    def __init__(self):
        self.sizes: list[int] = []

    def wrap(self, pool):
        run = pool.run

        def recording(tasks, on_result=None):
            self.sizes += [len(pickle.dumps(task.args)) for task in tasks]
            return run(tasks, on_result)

        pool.run = recording
        return pool


def _timed_real(pool) -> tuple[float, list[list[dict]]]:
    """Step 1 of the three datasets, storeless, from cold caches."""
    scale = get_scale("smoke")
    clear_reuse_caches()
    started = time.perf_counter()
    records = []
    for name in REAL_DATASETS:
        spec = DATASET_SPECS[name]
        campaign = Campaign(build_target(spec.target, scale), campaign_config(spec, scale))
        result = run_campaign(campaign, pool=pool)
        records.append([record.to_dict() for record in result.records])
    return time.perf_counter() - started, records


@pytest.mark.bench_smoke
def test_bench_real_targets_pooled(benchmark):
    serial_sizes, pooled_sizes = _ArgSizes(), _ArgSizes()
    serial_seconds, serial = _timed_real(serial_sizes.wrap(SerialPool()))

    def pooled_run():
        with ProcessPool(2, backoff=0) as pool:
            return _timed_real(pooled_sizes.wrap(pool))

    pooled_seconds, pooled = benchmark.pedantic(pooled_run, rounds=1, iterations=1)
    print()
    print(
        f"real targets {'/'.join(REAL_DATASETS)}: serial {serial_seconds:.2f}s, "
        f"2 workers {pooled_seconds:.2f}s ({serial_seconds / pooled_seconds:.2f}x), "
        f"largest shard args {max(pooled_sizes.sizes)} B"
    )
    assert pooled == serial
    assert len(pooled_sizes.sizes) == len(serial_sizes.sizes)
    assert max(pooled_sizes.sizes) < 4 * 1024
