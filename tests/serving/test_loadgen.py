"""The seeded event generator behind served-detector streams."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.detector import Detector
from repro.core.predicate import And, Comparison, Or
from repro.runtime.engine import StreamingEngine
from repro.runtime.registry import DetectorRegistry
from repro.serving.loadgen import LoadProfile, synthesize_states

P_HI = Comparison("v", ">", 5.0)
P_LO = Or([Comparison("v", "<=", 1.0), Comparison("w", "==", 0.0)])
P_MIX = And([Comparison("u", "!=", 3.0), Comparison("v", ">", 0.0)])


def make_registry() -> DetectorRegistry:
    registry = DetectorRegistry(lint_policy="off")
    registry.register(Detector(P_HI, name="hi"))
    registry.register(Detector(P_LO, name="lo"))
    registry.register(Detector(P_MIX, name="mix"))
    return registry


class TestLoadgen:
    def test_stream_is_deterministic(self):
        registry = make_registry()
        profile = LoadProfile(events=50, seed=9)
        first = list(synthesize_states(registry, profile))
        second = list(synthesize_states(registry, profile))
        assert first == second

    def test_stream_exercises_both_branches(self):
        registry = make_registry()
        states = list(
            synthesize_states(registry, LoadProfile(events=400, seed=0))
        )
        engine = StreamingEngine.from_registry(registry, check=False)
        result = engine.evaluate_batch(states)
        for name, flagged in result.flags.items():
            assert 0 < int(flagged.sum()) < len(states), name

    def test_missing_fraction_drops_variables(self):
        registry = make_registry()
        states = list(
            synthesize_states(
                registry,
                LoadProfile(events=200, seed=1, missing_fraction=0.5),
            )
        )
        assert any(len(s) < 3 for s in states)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            LoadProfile(events=-1)
        with pytest.raises(ValueError):
            LoadProfile(hot_fraction=1.5)

    def test_import_loads_no_other_serving_module(self):
        # The generator stands alone: importing it must not pull in any
        # sibling module of its package (nor multiprocessing with them).
        probe = (
            "import sys\n"
            "import repro.serving.loadgen\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.serving.')))\n"
        )
        source_root = str(pathlib.Path(repro.__file__).parent.parent)
        env = dict(os.environ, PYTHONPATH=source_root)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True, env=env, timeout=60,
        ).stdout.strip()
        assert out == "['repro.serving.loadgen']"
