"""Tests for probes and harnesses."""

import ast

import pytest

from repro.analysis.dataflow.probes import iter_target_sources, probe_parts

from repro.injection.bitflip import BitFlip
from repro.injection.instrument import (
    GoldenHarness,
    InjectionHarness,
    InstrumentationError,
    Location,
    Probe,
    VariableSpec,
)

ENTRY = Probe("M", Location.ENTRY)
EXIT = Probe("M", Location.EXIT)


def drive(harness, iterations=5, value=1.0):
    """Simulate a module probed at entry and exit per iteration."""
    states = []
    for i in range(iterations):
        state = harness.probe("M", Location.ENTRY, {"v": value, "i": i})
        state = harness.probe("M", Location.EXIT, {"v": state["v"] * 2, "i": i})
        states.append(state)
    return states


class TestVariableSpec:
    def test_bits(self):
        assert VariableSpec("v", "float64").bits == 64
        assert VariableSpec("b", "bool").bits == 1

    def test_invalid_kind(self):
        with pytest.raises(Exception):
            VariableSpec("v", "int16")


class TestGoldenHarness:
    def test_records_all_probes(self):
        harness = GoldenHarness()
        drive(harness, 3)
        assert len(harness.samples) == 6
        assert harness.occurrences(ENTRY) == 3
        assert harness.occurrences(EXIT) == 3

    def test_sample_probe_filter(self):
        harness = GoldenHarness(sample_probe=EXIT)
        drive(harness, 3)
        assert len(harness.samples) == 3
        assert all(s.probe == EXIT for s in harness.samples)

    def test_samples_preserve_values(self):
        harness = GoldenHarness()
        drive(harness, 2, value=7.0)
        entries = harness.samples_at(ENTRY)
        assert entries[0].variables["v"] == 7.0
        assert entries[1].occurrence == 1

    def test_never_mutates(self):
        harness = GoldenHarness()
        out = harness.probe("M", Location.ENTRY, {"v": 5.0})
        assert out == {"v": 5.0}

    def test_returns_copy(self):
        original = {"v": 5.0}
        harness = GoldenHarness()
        out = harness.probe("M", Location.ENTRY, original)
        out["v"] = 9.0
        assert original["v"] == 5.0


class TestInjectionHarness:
    def flip(self):
        return BitFlip("v", "float64", 63)  # sign flip

    def test_injects_at_exact_occurrence(self):
        harness = InjectionHarness(ENTRY, self.flip(), injection_time=2,
                                   sample_probe=ENTRY)
        for i in range(5):
            state = harness.probe("M", Location.ENTRY, {"v": 1.0})
            if i == 2:
                assert state["v"] == -1.0
            else:
                assert state["v"] == 1.0
        assert harness.injected
        assert harness.original_value == 1.0
        assert harness.injected_value == -1.0

    def test_injects_only_once(self):
        harness = InjectionHarness(ENTRY, self.flip(), injection_time=0,
                                   sample_probe=ENTRY)
        first = harness.probe("M", Location.ENTRY, {"v": 1.0})
        second = harness.probe("M", Location.ENTRY, {"v": 1.0})
        assert first["v"] == -1.0
        assert second["v"] == 1.0

    def test_injection_probe_must_expose_variable(self):
        harness = InjectionHarness(ENTRY, BitFlip("missing", "float64", 0), 0)
        with pytest.raises(InstrumentationError):
            harness.probe("M", Location.ENTRY, {"v": 1.0})

    def test_wrong_probe_not_injected(self):
        harness = InjectionHarness(EXIT, self.flip(), injection_time=0,
                                   sample_probe=EXIT)
        state = harness.probe("M", Location.ENTRY, {"v": 1.0})
        assert state["v"] == 1.0
        assert not harness.injected

    def test_sampling_window(self):
        harness = InjectionHarness(ENTRY, self.flip(), injection_time=3,
                                   sample_probe=ENTRY, sample_budget=2)
        for _ in range(8):
            harness.probe("M", Location.ENTRY, {"v": 1.0})
        assert len(harness.samples) == 2
        assert harness.samples[0].occurrence == 3

    def test_sample_contains_corrupted_value(self):
        """Entry/entry sampling sees the flip ('straight after the
        injection', as in the paper's Hiller-style setup)."""
        harness = InjectionHarness(ENTRY, self.flip(), injection_time=1,
                                   sample_probe=ENTRY)
        harness.probe("M", Location.ENTRY, {"v": 1.0})
        harness.probe("M", Location.ENTRY, {"v": 1.0})
        assert harness.samples[0].variables["v"] == -1.0

    def test_unbounded_budget(self):
        harness = InjectionHarness(ENTRY, self.flip(), injection_time=0,
                                   sample_probe=ENTRY, sample_budget=None)
        for _ in range(10):
            harness.probe("M", Location.ENTRY, {"v": 1.0})
        assert len(harness.samples) == 10


class TestProbe:
    def test_key_and_str(self):
        assert ENTRY.key == ("M", Location.ENTRY)
        assert str(ENTRY) == "M@entry"
        assert str(Location.EXIT) == "exit"


class TestProbeAliasing:
    """A counting harness hands the caller's own dict back, so targets
    must pass a fresh one on every call."""

    def flip(self):
        return BitFlip("v", "float64", 63)

    def test_counting_harness_returns_the_callers_dict(self):
        harness = InjectionHarness(ENTRY, self.flip(), injection_time=0,
                                   sample_probe=ENTRY, sample_budget=1)
        harness.probe("M", Location.ENTRY, {"v": 1.0})  # flip + sample
        variables = {"v": 1.0}
        assert harness.probe("M", Location.ENTRY, variables) is variables
        assert harness.occurrences(ENTRY) == 2

    def test_non_counting_harness_returns_a_copy(self):
        harness = InjectionHarness(ENTRY, self.flip(), injection_time=1,
                                   sample_probe=ENTRY, sample_budget=1)
        variables = {"v": 1.0}
        out = harness.probe("M", Location.ENTRY, variables)
        assert out is not variables
        out["v"] = 9.0
        assert variables == {"v": 1.0}
        flipped = harness.probe("M", Location.ENTRY, variables)
        assert flipped["v"] == -1.0 and variables == {"v": 1.0}

    @pytest.mark.parametrize("package", ["flightgear", "sevenzip", "mp3gain"])
    def test_shipped_targets_pass_a_dict_display(self, package):
        sites = 0
        for module, source in iter_target_sources(package):
            for node in ast.walk(ast.parse(source)):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "probe"
                ):
                    continue
                parts = probe_parts(node)
                assert parts is not None, f"{module}:{node.lineno}: unrecognised probe call"
                assert isinstance(parts[2], ast.Dict), (
                    f"{module}:{node.lineno}: probe state is not a dict display"
                )
                sites += 1
        assert sites == 4  # entry and exit of both instrumented modules
