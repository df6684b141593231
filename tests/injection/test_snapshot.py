"""Run-state snapshots of the shipped targets are complete.

Resuming, the golden rejoin and the suffix memo all rest on one
premise (:mod:`repro.injection.golden`): two run states with equal
pickled digests are equal states, so the rest of their runs are equal.
A snapshot that leaves out a field breaks that premise without any
record changing on the test data, so these tests check the snapshots
themselves.  At several unit boundaries of every smoke test case's
fault-free run of each shipped target:

* the pickled state loads into a state that pickles to the same bytes
  and finishes the run with the golden output and final probe counts;
* changing any one scalar reachable from the state -- an attribute of
  the state or of a module object inside it, an element of a list or
  dict, an entry of an array -- changes the state's digest.

Frozen dataclasses inside a state (FlightGear's ``Scenario``) are
immutable values derived from the test case, which the snapshot
carries; no unit can change them, so they are not walked.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.experiments.datasets import build_target
from repro.experiments.scale import get_scale
from repro.injection.golden import _digest
from repro.injection.instrument import GoldenHarness

SMOKE = get_scale("smoke")
TEST_CASES = {
    "FG": SMOKE.fg_test_cases,
    "7Z": SMOKE.sz_test_cases,
    "MG": SMOKE.mg_test_cases,
}
CASES = [(name, tc) for name, tcs in TEST_CASES.items() for tc in tcs]


def _fields(obj) -> list[str]:
    """Attribute names of an object's state: its ``__dict__`` and the
    slots of every class in its MRO."""
    names = list(vars(obj)) if hasattr(obj, "__dict__") else []
    for cls in type(obj).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        names.extend((slots,) if isinstance(slots, str) else slots)
    return names


def _scalar_paths(value, path=()):
    """Paths to every scalar reachable from ``value``."""
    if value is None:
        return
    if isinstance(value, (bool, int, float, str, bytes)):
        yield path
    elif isinstance(value, np.ndarray):
        if value.size:
            yield path + (("item", 0),)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _scalar_paths(item, path + (("item", key),))
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from _scalar_paths(item, path + (("item", index),))
    elif dataclasses.is_dataclass(value) and value.__dataclass_params__.frozen:
        return
    else:
        for name in _fields(value):
            yield from _scalar_paths(getattr(value, name), path + (("attr", name),))


def _changed(value):
    """A different scalar of the same type."""
    if isinstance(value, (bool, np.bool_)):
        return not value
    if isinstance(value, (float, np.floating)):
        if math.isfinite(value) and value + 1.0 != value:
            return value + 1.0
        return type(value)(0.5)
    if isinstance(value, (int, np.integer)):
        return value + 1
    if isinstance(value, bytes):
        return value + b"\0"
    return value + "x"


def _replace(container, path):
    """``container`` with the scalar at ``path`` changed: in place where
    the container is mutable, a new tuple where it is not."""
    if not path:
        return _changed(container)
    (kind, key), rest = path[0], path[1:]
    if kind == "attr":
        setattr(container, key, _replace(getattr(container, key), rest))
        return container
    child = _replace(container[key], rest)
    if isinstance(container, tuple):
        return container[:key] + (child,) + container[key + 1 :]
    container[key] = child
    return container


def _boundaries(target, test_case):
    """``(pickled state, probe counts)`` at several unit boundaries of
    the fault-free run -- the first two, the last, and three between
    -- plus the run's output and final counts."""
    harness = GoldenHarness()
    state = target.start(test_case)
    steps = []
    while True:
        steps.append((pickle.dumps(state), harness.occurrence_counts()))
        if not target.advance(state, harness):
            break
    last = len(steps) - 1
    chosen = sorted({0, 1, last // 4, last // 2, 3 * last // 4, last} & set(range(last + 1)))
    return [steps[unit] for unit in chosen], target.finish(state), harness.occurrence_counts()


@pytest.fixture(scope="module")
def targets():
    return {name: build_target(name, SMOKE) for name in TEST_CASES}


@pytest.mark.parametrize("name,test_case", CASES)
def test_round_trip_finishes_as_the_golden_run(targets, name, test_case):
    target = targets[name]
    boundaries, output, final_counts = _boundaries(target, test_case)
    for snapshot, counts in boundaries:
        state = pickle.loads(snapshot)
        assert pickle.dumps(state) == snapshot
        harness = GoldenHarness()
        harness.restore_occurrences(counts)
        while target.advance(state, harness):
            pass
        assert target.finish(state) == output
        assert harness.occurrence_counts() == final_counts


@pytest.mark.parametrize("name,test_case", CASES)
def test_every_scalar_moves_the_digest(targets, name, test_case):
    boundaries, _, _ = _boundaries(targets[name], test_case)
    for unit, (snapshot, _) in enumerate(boundaries):
        digest = _digest(snapshot)
        paths = list(_scalar_paths(pickle.loads(snapshot)))
        assert paths
        for path in paths:
            changed = _replace(pickle.loads(snapshot), path)
            assert _digest(pickle.dumps(changed)) != digest, (
                f"{name} test case {test_case}, boundary #{unit}: changing "
                f"{path} leaves the snapshot digest unchanged"
            )


def test_walk_reaches_module_objects(targets):
    """The walk descends into module objects, slotted or not."""
    fg_paths = set(_scalar_paths(targets["FG"].start(0)))
    assert (("attr", "v"),) in fg_paths
    assert (("attr", "mass"), ("attr", "fuel")) in fg_paths
    assert (("attr", "gear"), ("attr", "compression")) in fg_paths
    mg_paths = set(_scalar_paths(targets["MG"].start(0)))
    assert any(path[0] == ("attr", "analysis") for path in mg_paths)
