"""The fused FlightGear unit against its law-by-law reference.

``FlightGearTarget.advance`` hoists loop invariants, makes one
aerodynamics call per unit and unpacks ``NamedTuple`` module results;
``tests/targets/_fg_reference.py`` keeps the unit as it was written
before.  From the same state and under the same harness, both must
pass the same probe dicts and leave the same pickled state bytes,
unit by unit -- including states no fault-free run reaches: NaN,
infinities, values near the float range's ends, zero or negative mass
and stiffness, a damaged gear, airborne, cleared-runway and stall
branches, and probes that return corrupted values.
"""

from __future__ import annotations

import copy
import math
import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.experiments.datasets import build_target
from repro.experiments.scale import get_scale
from repro.targets.flightgear.gear import GearModule
from repro.targets.flightgear.massbalance import MassModule
from tests.injection._replay import CountingHarness
from tests.targets import _fg_reference as reference

#: The FlightGear target at smoke scale.
TARGET = build_target("FG", get_scale("smoke"))

_EXTREMES = (
    math.nan,
    math.inf,
    -math.inf,
    1e308,
    -1e308,
    0.0,
    -0.0,
    5e-324,
    1.0,
    -1.0,
)


def _floats(lo: float, hi: float):
    """Mostly plausible values in ``[lo, hi]``, sometimes extreme ones."""
    return st.one_of(
        st.floats(lo, hi),
        st.sampled_from(_EXTREMES),
        st.floats(allow_nan=True, allow_infinity=True),
    )


_FLIGHT = {
    "v": _floats(-5.0, 60.0),
    "x": _floats(0.0, 2000.0),
    "h": st.one_of(st.just(0.0), _floats(-1.0, 40.0)),
    "vs": _floats(-15.0, 15.0),
    "theta": _floats(-0.2, 0.5),
    "q": _floats(-0.6, 0.6),
    "max_airspeed": _floats(0.0, 60.0),
    "distance_at_clear": _floats(0.0, 2000.0),
    "max_pitch_rate_before_clear": _floats(0.0, 40.0),
}
_FLAGS = (
    "passed_critical",
    "passed_rotation",
    "lifted_off",
    "cleared_runway",
    "stalled",
)
_GEAR = {
    "spring_k": _floats(-1e5, 2e5),
    "damping": _floats(-1e4, 2e6),
    "mu_roll": _floats(-0.1, 0.5),
    "drag_coeff": _floats(-1.0, 3.0),
    "compression": _floats(-0.1, 0.3),
    "_prev_compression": _floats(-0.1, 0.3),
}
_MASS = {
    "gravity": _floats(-10.0, 20.0),
    "dry_mass": _floats(-600.0, 1200.0),
    "fuel": _floats(-10.0, 500.0),
    "burn_rate": _floats(-1.0, 1.0),
    "cg_offset": _floats(-5.0, 5.0),
    "inertia_base": _floats(-2000.0, 4000.0),
}
_PROBED = (
    "compression",
    "spring_k",
    "damping",
    "mu_roll",
    "drag_coeff",
    "normal_force",
    "friction",
    "gear_drag",
    "fuel",
    "burn_rate",
    "dry_mass",
    "cg_offset",
    "inertia_base",
    "mass_total",
    "weight",
    "inertia_eff",
)


@st.composite
def run_states(draw):
    """A run state of any test case at any iteration, any slot drawn."""
    state = TARGET.start(draw(st.integers(0, 8)))
    init = TARGET.init_iterations
    total = init + TARGET.run_iterations
    state.iteration = draw(
        st.one_of(
            st.integers(0, total + 1), st.sampled_from((0, init - 1, init, total - 1))
        )
    )
    for slot, values in _FLIGHT.items():
        if draw(st.booleans()):
            setattr(state, slot, draw(values))
    for slot in _FLAGS:
        setattr(state, slot, draw(st.booleans()))
    state.gear.damaged = draw(st.booleans())
    for module, slots in ((state.gear, _GEAR), (state.mass, _MASS)):
        for slot, values in slots.items():
            if draw(st.booleans()):
                setattr(module, slot, draw(values))
    return state


class _Scripted:
    """A harness that logs every probe dict it is passed and returns it
    with the scripted values written over (a stand-in for injected
    faults, at any probe call and in any variable)."""

    def __init__(self, overrides: dict[int, dict]) -> None:
        self.overrides = overrides
        self.log: list[bytes] = []

    def probe(self, module, location, variables):
        self.log.append(pickle.dumps((module, location.value, variables)))
        override = self.overrides.get(len(self.log) - 1)
        if override is None:
            return variables
        return {**variables, **override}


def _overrides():
    value = st.one_of(st.sampled_from(_EXTREMES), st.floats(-3e4, 3e4))
    change = st.dictionaries(
        st.sampled_from(_PROBED + ("on_ground",)), value, max_size=3
    )
    return st.dictionaries(st.integers(0, 11), change, max_size=3)


def _run(unit, state, overrides, units: int):
    """Step ``state`` with ``unit``; the pickled state after every unit,
    the probe log and how the run ended."""
    harness = _Scripted(overrides)
    snapshots = []
    ended = None
    try:
        for _ in range(units):
            more = unit(state, harness)
            snapshots.append((more, pickle.dumps(state)))
            if not more:
                break
    except Exception as exc:  # both units must fail alike
        ended = type(exc).__name__
    return snapshots, harness.log, ended


def _reference_unit(state, harness):
    return reference.advance(TARGET, state, harness)


@given(state=run_states(), overrides=_overrides(), units=st.integers(1, 4))
@settings(
    deadline=None,
    max_examples=400,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fused_unit_matches_reference(state, overrides, units):
    twin = copy.deepcopy(state)
    assert pickle.dumps(twin) == pickle.dumps(state)
    fused = _run(TARGET.advance, state, overrides, units)
    expected = _run(_reference_unit, twin, overrides, units)
    assert fused == expected


@pytest.mark.parametrize("test_case", range(9))
def test_fault_free_runs_match_reference(test_case):
    """Every unit of every fault-free run, start to finish."""
    fused, ref = TARGET.start(test_case), TARGET.start(test_case)
    h_fused, h_ref = CountingHarness(), CountingHarness()
    while True:
        more = TARGET.advance(fused, h_fused)
        assert more == _reference_unit(ref, h_ref)
        assert pickle.dumps(fused) == pickle.dumps(ref)
        if not more:
            break
    assert h_fused.occurrence_counts() == h_ref.occurrence_counts()
    assert TARGET.finish(fused) == TARGET.finish(ref)


def test_module_results_unpack_and_keep_their_fields():
    """Module results are tuples ``advance`` unpacks, whose fields keep
    their names."""
    gear = GearModule()
    forces = gear.step(_Scripted({}), 9000.0, 0.0, 10.0, 1.225, 0.0, 0.1)
    normal, friction, drag, on_ground = forces
    assert (normal, friction, drag, on_ground) == (
        forces.normal,
        forces.friction,
        forces.drag,
        forces.on_ground,
    )
    mass = MassModule(TARGET.aircraft, TARGET.start(0).scenario)
    result = mass.step(_Scripted({}), dt=0.1, throttle=1.0)
    assert tuple(result) == (
        result.mass,
        result.weight,
        result.inertia,
        result.cg_offset,
    )
