"""Tests for the task model: fingerprints, seeds, graph, estimates."""

import pytest

from repro.injection.instrument import Location
from repro.injection.campaign import CampaignConfig
from repro.orchestration import (
    SerialPool,
    Task,
    TaskGraph,
    derive_seed,
    estimate_runs,
    fingerprint_of,
)

from tests.orchestration._targets import square


class TestFingerprint:
    def test_deterministic(self):
        payload = {"a": 1, "b": [1.5, "x"]}
        assert fingerprint_of(payload) == fingerprint_of({"b": [1.5, "x"], "a": 1})

    def test_sensitive_to_content(self):
        assert fingerprint_of({"a": 1}) != fingerprint_of({"a": 2})

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            fingerprint_of({"a": float("nan")})


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "campaign:00001") == derive_seed(7, "campaign:00001")

    def test_distinct_per_task_and_seed(self):
        seeds = {
            derive_seed(seed, task)
            for seed in (0, 1, 2)
            for task in ("a:1", "a:2", "b:1")
        }
        assert len(seeds) == 9

    def test_fits_in_63_bits(self):
        assert 0 <= derive_seed(0, "t") < 2**63


class TestTask:
    def test_duplicate_ids_rejected(self):
        tasks = [Task("t:1", "a", square, (1,)), Task("t:1", "b", square, (2,))]
        with pytest.raises(ValueError, match="duplicate"):
            TaskGraph(tasks)


class TestTaskGraph:
    def test_results_in_task_order(self):
        tasks = [Task(f"t:{i}", f"f{i}", square, (i,)) for i in range(5)]
        outcomes = TaskGraph(tasks).run(SerialPool())
        assert list(outcomes) == [f"t:{i}" for i in range(5)]
        assert [o.result for o in outcomes.values()] == [i * i for i in range(5)]


class TestEstimateRuns:
    def _config(self, **overrides):
        base = dict(
            module="Acc",
            injection_location=Location.ENTRY,
            sample_location=Location.ENTRY,
            test_cases=(0, 1, 2),
            injection_times=(1, 2),
            variables=("a", "b"),
            bits=(0, 1, 2, 3),
        )
        base.update(overrides)
        return CampaignConfig(**base)

    def test_explicit_everything(self):
        assert estimate_runs(self._config()) == 3 * 2 * 2 * 4

    def test_default_bits(self):
        assert estimate_runs(self._config(bits=None)) == 3 * 2 * 2 * 64

    def test_mapping_bits_uses_widest(self):
        config = self._config(bits={"int32": (0, 1), "float64": (0, 1, 2)})
        assert estimate_runs(config) == 3 * 2 * 2 * 3

    def test_unknown_variables(self):
        assert estimate_runs(self._config(variables=None)) is None
        assert estimate_runs(self._config(variables=None), n_variables=5) == (
            3 * 2 * 5 * 4
        )
