"""Tests of the pipeline benchmark's own harness (not of the program).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import time

import pytest

import compare
import measure
import run
import workloads
from repro import observability as obs
from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.experiments.scale import get_scale
from repro.injection.campaign import Campaign
from repro.injection.store import CampaignStore

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
CATALOG = measure.load_catalog()


class TestCatalog:
    def test_metric_names_and_counts(self):
        e2e, layers = CATALOG["end_to_end"], CATALOG["per_layer"]
        assert 1 <= len(e2e) <= 16
        assert 1 <= len(layers) <= 128
        names = [m["name"] for m in e2e + layers]
        assert len(names) == len(set(names))
        for metric in e2e + layers:
            assert NAME.match(metric["name"]), metric["name"]
            assert UNIT.match(metric["unit"]), metric["unit"]
            assert metric["better"] in ("lower", "higher")
        for metric in e2e:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        setup = next(m for m in e2e if m["name"] == "setup_s")
        assert setup["unit"] == "s" and setup["better"] == "lower"
        assert setup["bound"] == max(m["bound"] for m in e2e)

    def test_workloads_agree_everywhere(self):
        listed = [w["name"] for w in CATALOG["workloads"]]
        assert listed == list(workloads.WORKLOADS)

    def test_layer_metrics_cover_the_catalog(self):
        produced = measure.layer_metrics([], {})
        assert set(produced) == {m["name"] for m in CATALOG["per_layer"]}


class TestTailPercentile:
    def test_picks_highest_percentile_with_ten_beyond(self):
        samples = list(range(1, 1001))
        assert measure.tail_percentile(samples) == (99.0, 990.0)
        assert measure.tail_percentile(list(range(1, 10001)))[0] == 99.9
        assert measure.tail_percentile(list(range(1, 2001))) == (99.0, 1980.0)

    def test_falls_back_down_the_ladder(self):
        assert measure.tail_percentile(list(range(1, 201)))[0] == 95.0
        assert measure.tail_percentile(list(range(1, 21))) == (50.0, 10.0)

    def test_refuses_too_few_samples(self):
        with pytest.raises(ValueError):
            measure.tail_percentile(list(range(19)))
        with pytest.raises(ValueError):
            measure.tail_percentile([])

    def test_run_reports_the_slowest_when_there_is_no_tail(self):
        assert run.op_tail([3.0, 1.0, 2.0]) == ("max", 3.0)
        assert run.op_tail(list(range(1, 1001))) == ("p99", 990.0)


class TestPassSeconds:
    def test_one_pass_is_its_operations(self):
        one = workloads.PassResult(1.0, [0.25, 0.5], 0, deploy_seconds=[0.125])
        assert run.pass_seconds([one]) == 0.875

    def test_a_stall_in_one_pass_drops_out(self):
        passes = [workloads.PassResult(0.0, [1.0, 2.0], 0) for _ in range(4)]
        passes[1].op_seconds[0] = 9.0
        assert run.pass_seconds(passes) == 3.0

    def test_minimum_passes_then_as_many_as_fit(self):
        class Long:
            def run_pass(self):
                return workloads.PassResult(5.0, [5.0], 0)

        class Short:
            def run_pass(self):
                time.sleep(0.01)
                return workloads.PassResult(0.01, [0.01], 0)

        now = time.perf_counter()
        assert len(run.run_passes(Long(), 4.0, 3, born=now)) == 3
        assert 3 < len(run.run_passes(Short(), 0.2, 3, born=now)) <= 20

    def test_no_pass_ends_past_the_deadline(self):
        class Long:
            def run_pass(self):
                return workloads.PassResult(5.0, [5.0], 0)

        late = time.perf_counter() - run.START_DEADLINE_S + 1.0
        assert len(run.run_passes(Long(), 4.0, 3, born=late)) == 1

    def test_each_step_at_its_median(self):
        passes = [
            workloads.PassResult(0.0, [1.0, 3.0], 0, deploy_seconds=[0.5]),
            workloads.PassResult(0.0, [2.0, 2.5], 0, deploy_seconds=[0.25]),
            workloads.PassResult(0.0, [4.0, 2.0], 0, deploy_seconds=[0.75]),
        ]
        assert run.step_medians(passes) == ([2.0, 2.5], [0.5])
        assert run.pass_seconds(passes) == 5.0


class TestPace:
    @staticmethod
    def _pace(times, samples):
        pace = measure.Pace()
        pace.times, pace.samples = list(times), list(samples)
        return pace

    def test_a_step_is_rescaled_by_the_samples_around_it(self):
        pace = self._pace([0.0, 1.0, 2.0], [1e-3, 2e-3, 4e-3])
        # between the samples at 1.0 and 2.0: a pace of 3 ms, three times the reference
        assert pace.paced(0.6, 1.2) == pytest.approx(0.6 * measure.REF_PACE_S / 3e-3)
        assert pace.paced(0.5, 0.25) == pytest.approx(0.5 * measure.REF_PACE_S / 1.5e-3)

    def test_the_ends_of_the_run_use_the_nearest_sample(self):
        pace = self._pace([1.0, 2.0], [2e-3, 4e-3])
        assert pace.paced(0.5, 0.0) == pytest.approx(0.25)
        assert pace.paced(0.5, 3.0) == pytest.approx(0.125)

    def test_a_slower_host_reads_the_same(self):
        quick, slow = measure.Pace(probe=lambda: 1e-3), measure.Pace(probe=lambda: 2e-3)
        for pace in (quick, slow):
            pace.sample()
        started = time.perf_counter()
        assert quick.paced(0.5, started) == pytest.approx(slow.paced(1.0, started))

    def test_tick_samples_only_when_due(self):
        pace = measure.Pace(probe=lambda: 1e-3, every=3600.0)
        pace.tick()
        pace.tick()
        assert len(pace.samples) == 1
        with pytest.raises(ValueError):
            measure.Pace().paced(1.0, 0.0)


class TestInputs:
    def test_seed_zero_is_the_scales_own_config(self):
        inputs = workloads.inputs_for(0)
        assert inputs.smoke == get_scale("smoke")
        assert inputs.load.seed == 0

    def test_seed_to_inputs_is_deterministic(self):
        assert workloads.inputs_for(7) == workloads.inputs_for(7)
        assert workloads.inputs_for(7) != workloads.inputs_for(8)

    def test_seed_varies_events_not_work(self):
        base, seeded = workloads.inputs_for(0), workloads.inputs_for(3)
        assert seeded.smoke == base.smoke
        assert seeded.load == dataclasses.replace(base.load, seed=3)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError):
            workloads.inputs_for(-1)


class TestVerdicts:
    BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.0, 10.03, 9.97]

    def test_same_distribution_is_unchanged(self):
        pairs = list(zip(self.BASE, reversed(self.BASE)))
        assert compare.verdict(self.BASE, self.BASE[::-1], pairs, 0.1, "lower")[0] == "unchanged"

    def test_clear_gain_is_better(self):
        change = [v * 0.8 for v in self.BASE]
        pairs = list(zip(self.BASE, change))
        outcome, share = compare.verdict(self.BASE, change, pairs, 0.1, "lower")
        assert (outcome, share) == ("better", 1.0)

    def test_gain_needs_ten_pairs(self):
        change = [v * 0.8 for v in self.BASE[:9]]
        pairs = list(zip(self.BASE[:9], change))
        assert compare.verdict(self.BASE[:9], change, pairs, 0.1, "lower")[0] == "unchanged"

    def test_higher_is_better_direction(self):
        change = [v * 1.2 for v in self.BASE]
        pairs = list(zip(self.BASE, change))
        assert compare.verdict(self.BASE, change, pairs, 0.1, "higher")[0] == "better"
        assert compare.verdict(self.BASE, change, pairs, 0.1, "lower")[0] == "worse"

    def test_slowdown_beyond_bound_is_worse(self):
        change = [v * 1.15 for v in self.BASE]
        pairs = list(zip(self.BASE, change))
        assert compare.verdict(self.BASE, change, pairs, 0.1, "lower")[0] == "worse"

    def test_slowdown_within_bound_is_unchanged(self):
        change = [v * 1.05 for v in self.BASE]
        pairs = list(zip(self.BASE, change))
        assert compare.verdict(self.BASE, change, pairs, 0.1, "lower")[0] == "unchanged"

    def test_wide_spread_is_unresolved(self):
        wide = [7.0, 13.0, 8.0, 12.0, 9.0, 11.0, 7.5, 12.5, 10.0, 10.0]
        pairs = list(zip(self.BASE, wide))
        assert compare.verdict(self.BASE, wide, pairs, 0.1, "lower")[0] == "unresolved"

    def test_wide_spread_but_dominating_is_resolved(self):
        wide = [5.0, 6.5, 5.2, 6.4, 5.5, 6.0, 5.1, 6.6, 5.8, 5.9]
        pairs = list(zip(self.BASE, wide))
        assert compare.verdict(self.BASE, wide, pairs, 0.1, "lower")[0] == "better"
        assert compare.verdict(self.BASE, wide[:5], pairs[:5], 0.1, "lower")[0] == "unchanged"


def _run_doc(workload, seed, values, failed=0):
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in CATALOG["end_to_end"]
    }
    return {"workload": workload, "seed": seed, "trace": 0, "samples": {}, "passes": [],
            "result": {"correct": not failed, "attempted": 100, "failed": failed,
                       "metrics": metrics}}


def _write_set(directory, scale=1.0, failed=0):
    directory.mkdir()
    for seed, jitter in enumerate(TestVerdicts.BASE):
        values = {m["name"]: jitter * scale for m in CATALOG["end_to_end"]}
        doc = _run_doc("serve-detect", seed, values, failed if seed == 0 else 0)
        (directory / f"serve-detect.{seed}.json").write_text(json.dumps(doc))


class TestCompareCli:
    def test_agreeing_sets_pass(self, tmp_path, capsys):
        _write_set(tmp_path / "a")
        _write_set(tmp_path / "b", scale=1.01)
        assert compare.main(["--check-agreement", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert "unchanged" in capsys.readouterr().out

    def test_regression_fails_agreement(self, tmp_path):
        _write_set(tmp_path / "a")
        _write_set(tmp_path / "b", scale=1.3)
        assert compare.main(["--check-agreement", str(tmp_path / "a"), str(tmp_path / "b")]) == 1
        rows = compare.compare(compare.load_runs(tmp_path / "a"),
                               compare.load_runs(tmp_path / "b"), CATALOG)
        assert {row["verdict"] for row in rows if row["metric"] != "failed_frac"} == {"worse"}

    def test_more_failures_is_worse(self, tmp_path):
        _write_set(tmp_path / "a")
        _write_set(tmp_path / "b", failed=3)
        rows = compare.compare(compare.load_runs(tmp_path / "a"),
                               compare.load_runs(tmp_path / "b"), CATALOG)
        failed = next(row for row in rows if row["metric"] == "failed_frac")
        assert failed["verdict"] == "worse"


class TestTimedStore:
    @staticmethod
    def _campaign():
        scale = get_scale("smoke")
        spec = DATASET_SPECS["MG-A1"]
        config = dataclasses.replace(
            campaign_config(spec, scale), test_cases=(0,), injection_times=(1,)
        )
        return Campaign(build_target(spec.target, scale), config)

    def test_bit_identical_to_plain_store(self, tmp_path):
        plain = CampaignStore(tmp_path / "plain")
        timed = workloads.TimedStore(tmp_path / "timed")
        cold = (self._campaign().run(store=plain), self._campaign().run(store=timed))
        with obs.tracing() as tracer:
            warm = (self._campaign().run(store=plain), self._campaign().run(store=timed))
        assert cold[0].to_dict() == cold[1].to_dict() == warm[0].to_dict() == warm[1].to_dict()
        assert plain.counters == timed.counters
        for sub in ("index.json", "shards"):
            a, b = tmp_path / "plain" / sub, tmp_path / "timed" / sub
            if a.is_dir():
                assert sorted(p.name for p in a.iterdir()) == sorted(p.name for p in b.iterdir())
                for path in a.iterdir():
                    assert path.read_bytes() == (b / path.name).read_bytes()
            else:
                assert a.read_bytes() == b.read_bytes()
        fetches = [s for s in tracer.spans if s.name == "bench.injection.store.fetch"]
        assert fetches and all(s.counters["hits"] == 1 for s in fetches)

    def test_forwarding_calls_return_what_the_plain_store_returns(self, tmp_path):
        plain = CampaignStore(tmp_path / "plain")
        timed = workloads.TimedStore(tmp_path / "timed")
        key = {"target": "t", "config": {"module": "m"}, "pairs": [["v", "int32", 0]]}
        for store in (plain, timed):
            assert store.fetch("ab" * 8, key) is None
        with obs.tracing() as tracer:
            assert plain.put("ab" * 8, key, [1, 2]) == timed.put("ab" * 8, key, [1, 2]) is True
            assert plain.put("ab" * 8, key, [1, 2]) == timed.put("ab" * 8, key, [1, 2]) is False
        assert plain.fetch("ab" * 8, key) == timed.fetch("ab" * 8, key) == [1, 2]
        put = next(s for s in tracer.spans if s.name == "bench.injection.store.put")
        assert put.counters["bytes"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark must fail, printing no result."""
    shutil.copy(measure.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload", "pipeline-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
