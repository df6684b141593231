"""The instrumented FlightGear takeoff simulator target.

A test case flies one scenario of the 3x3 (mass x head-wind) grid
through a fixed-length control loop: an initialisation period with the
engine at idle followed by a full-throttle takeoff run, mirroring the
paper's "2700 iterations of the main simulation loop, where the first
500 iterations correspond to an initialisation period".  A control
module provides a consistent input vector (full throttle, rotate at
Vr) at each iteration, as in the paper.

Longitudinal 3-DOF flight dynamics: ground roll with gear reaction and
rolling friction, rotation under a commanded pitch rate shaped by the
mass module's inertia and CG offset, lift-off once the wings carry the
weight, and climb-out to the runway-clear height.  The ``Gear`` and
``Mass`` modules are probed at entry and exit on every iteration, so
probe occurrence indices are control-loop iterations -- injection times
like "600 iterations after initialisation" translate directly.

A control-loop iteration is the unit an injected run executes (it
resumes from a golden-prefix checkpoint and runs to the end unless it
rejoins or converges), so :meth:`FlightGearTarget.advance` keeps the
unit lean without changing a bit of it: loop invariants (the
iteration count, ``1/dt``, the pitch target and rotation-rate command
in radians, the :class:`~repro.targets.flightgear.aero.Wing` products)
are computed once per target and the clamps are module constants; the
aerodynamics are one :meth:`~repro.targets.flightgear.aero.Wing.forces`
call; the module results are ``NamedTuple`` objects the unit unpacks; every
``min``/``max`` clamp is written out the way the builtin would pick.
``tests/targets/test_fg_unit.py`` holds it to the law-by-law unit it
replaced (``tests/targets/_fg_reference.py``), state bytes and probe
dicts, from arbitrary states.
"""

from __future__ import annotations

import math
import operator
from math import isfinite

from repro.injection.instrument import Harness, Location, VariableSpec
from repro.targets.base import TargetSystem
from repro.targets.flightgear import aero
from repro.targets.flightgear.aircraft import Aircraft, Scenario, scenario_for
from repro.targets.flightgear.gear import GearModule
from repro.targets.flightgear.massbalance import MassModule
from repro.targets.flightgear.spec import (
    CRITICAL_SPEED_MS,
    FailureReport,
    TakeoffSummary,
    evaluate_takeoff,
)

__all__ = ["FlightGearTarget"]

_RAD_TO_DEG = 180.0 / math.pi

#: Airspeed the climb-out speed-hold law maintains after the aircraft
#: clears the runway (just above the V2 of the failure spec).
CLIMB_SPEED_TARGET_MS = 34.0

#: Clamps of the control loop (rad, rad/s): the climb-out pitch-rate
#: command (+-2.5 deg/s), the pitch rate (+-30 deg/s) and the attitude
#: (-8 to 25 deg).
_CLIMB_RATE_MAX = math.radians(2.5)
_CLIMB_RATE_MIN = math.radians(-2.5)
_RATE_MAX = math.radians(30.0)
_RATE_MIN = math.radians(-30.0)
_PITCH_MAX = math.radians(25.0)
_PITCH_MIN = math.radians(-8.0)


class _TakeoffState:
    """One takeoff between two control-loop iterations.

    Holds the scenario, the two stateful modules, the flight state and
    the trajectory summary accumulators, and nothing of the target: a
    unit reads the aircraft constants from the target, and the mass
    module copied the ones it needs into scalars at the start.  A state
    pickles as flat scalars (:meth:`__reduce__`): the test case number,
    then every other slot of the state and of both modules, so a
    snapshot, a check digest and a restore hold no ``Scenario`` or
    ``Aircraft`` object.
    """

    __slots__ = (
        "scenario",
        "gear",
        "mass",
        "iteration",
        # Flight state.
        "v",      # ground speed, m/s
        "x",      # distance along runway, m
        "h",      # altitude, m
        "vs",     # vertical speed, m/s
        "theta",  # pitch attitude, rad
        "q",      # pitch rate, rad/s
        # Trajectory summary accumulators.
        "passed_critical",
        "passed_rotation",
        "max_airspeed",
        "lifted_off",
        "cleared_runway",
        "distance_at_clear",
        "max_pitch_rate_before_clear",
        "stalled",
    )

    def __init__(self, scenario: Scenario, aircraft: Aircraft) -> None:
        self.scenario = scenario
        self.gear = GearModule()
        self.mass = MassModule(aircraft, scenario)
        self.iteration = 0
        self.v = 0.0
        self.x = 0.0
        self.h = 0.0
        self.vs = 0.0
        self.theta = 0.0
        self.q = 0.0
        self.passed_critical = False
        self.passed_rotation = False
        self.max_airspeed = 0.0
        self.lifted_off = False
        self.cleared_runway = False
        self.distance_at_clear = math.inf
        self.max_pitch_rate_before_clear = 0.0
        self.stalled = False

    def __reduce__(self):
        # The scenario is a function of the test case, so the number
        # stands for it; every other field is a scalar.
        return (
            _restore_state,
            (
                self.scenario.test_case,
                _flight_fields(self),
                _gear_fields(self.gear),
                _mass_fields(self.mass),
            ),
        )


#: The scalar slots of a run state and of its modules, in pickled order.
_FLIGHT_SLOTS = _TakeoffState.__slots__[3:]
_flight_fields = operator.attrgetter(*_FLIGHT_SLOTS)
_gear_fields = operator.attrgetter(*GearModule.__slots__)
_mass_fields = operator.attrgetter(*MassModule.__slots__)


def _filled(obj, slots: tuple[str, ...], values: tuple) -> object:
    for name, value in zip(slots, values):
        setattr(obj, name, value)
    return obj


def _restore_state(
    test_case: int, flight: tuple, gear: tuple, mass: tuple
) -> _TakeoffState:
    """Unpickle a :class:`_TakeoffState` from its flat scalars."""
    state = _filled(_TakeoffState.__new__(_TakeoffState), _FLIGHT_SLOTS, flight)
    state.scenario = scenario_for(test_case)
    state.gear = _filled(GearModule.__new__(GearModule), GearModule.__slots__, gear)
    state.mass = _filled(MassModule.__new__(MassModule), MassModule.__slots__, mass)
    return state


class FlightGearTarget(TargetSystem):
    """Takeoff simulator with instrumented ``Gear`` and ``Mass``.

    Parameters
    ----------
    init_iterations / run_iterations:
        Control-loop lengths (paper: 500 + 2200).  The experiment
        drivers scale these down for laptop benches; injection times
        must be chosen within ``init_iterations + run_iterations``.
    dt:
        Integration step in seconds.
    """

    name = "FG"

    def __init__(
        self,
        init_iterations: int = 500,
        run_iterations: int = 2200,
        dt: float = 0.02,
    ) -> None:
        if init_iterations < 0 or run_iterations < 1:
            raise ValueError("iteration counts must be positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.init_iterations = init_iterations
        self.run_iterations = run_iterations
        self.dt = dt
        self.aircraft = aircraft = Aircraft()
        # Loop invariants of advance(), computed once.
        self._iterations = init_iterations + run_iterations
        self._inverse_dt = 1.0 / dt
        self._wing = aero.wing_of(aircraft)
        self._target_pitch = math.radians(aircraft.target_pitch_deg)
        self._pitch_rate_cmd = math.radians(aircraft.pitch_rate_cmd_deg)

    # ------------------------------------------------------------------
    # TargetSystem protocol
    # ------------------------------------------------------------------
    @property
    def modules(self) -> tuple[str, ...]:
        return ("Gear", "Mass")

    def variables_of(
        self, module: str, location: Location | None = None
    ) -> tuple[VariableSpec, ...]:
        self.check_module(module)
        if module == "Gear":
            entry = (
                VariableSpec("compression", "float64"),
                VariableSpec("spring_k", "float64"),
                VariableSpec("damping", "float64"),
                VariableSpec("mu_roll", "float64"),
                VariableSpec("drag_coeff", "float64"),
                VariableSpec("on_ground", "bool"),
            )
            exit_specs = (
                VariableSpec("compression", "float64"),
                VariableSpec("normal_force", "float64"),
                VariableSpec("friction", "float64"),
                VariableSpec("gear_drag", "float64"),
                VariableSpec("mu_roll", "float64"),
                VariableSpec("on_ground", "bool"),
            )
        else:
            entry = (
                VariableSpec("fuel", "float64"),
                VariableSpec("burn_rate", "float64"),
                VariableSpec("dry_mass", "float64"),
                VariableSpec("cg_offset", "float64"),
                VariableSpec("inertia_base", "float64"),
            )
            exit_specs = entry + (
                VariableSpec("mass_total", "float64"),
                VariableSpec("weight", "float64"),
                VariableSpec("inertia_eff", "float64"),
            )
        if location is Location.ENTRY:
            return entry
        if location is Location.EXIT:
            return exit_specs
        seen: dict[str, VariableSpec] = {}
        for spec in entry + exit_specs:
            seen.setdefault(spec.name, spec)
        return tuple(seen.values())

    def module_sources(self, module: str) -> tuple | None:
        # Gear and Mass state feed the same integrated simulation step,
        # so the closure is conservatively the whole package: any edit
        # invalidates both modules' stored shards rather than risking a
        # stale hit.
        self.check_module(module)
        from repro.targets.flightgear import (
            aero,
            aircraft,
            gear,
            massbalance,
            spec,
        )
        import repro.targets.flightgear.takeoff as takeoff

        return (takeoff, aircraft, aero, gear, massbalance, spec)

    def start(self, test_case: int) -> _TakeoffState:
        return _TakeoffState(scenario_for(test_case), self.aircraft)

    def advance(self, state: _TakeoffState, harness: Harness) -> bool:
        """One control-loop iteration.

        Every clamp is written out as the ``min``/``max`` it stands
        for would pick -- the first argument unless the second compares
        strictly beyond it -- so NaN, signed zeros and infinities take
        the same path they would through the builtins.
        """
        iteration = state.iteration
        if iteration >= self._iterations:
            return False
        aircraft = self.aircraft
        dt = self.dt
        v = state.v
        h = state.h
        vs = state.vs
        theta = state.theta
        q = state.q
        lifted_off = state.lifted_off
        cleared_runway = state.cleared_runway

        throttle = 0.0 if iteration < self.init_iterations else 1.0
        airspeed = v + state.scenario.headwind_ms * throttle
        if 0.0 > airspeed:
            airspeed = 0.0

        m, weight, inertia, cg_offset = state.mass.step(harness, dt, throttle)
        # Guards against corrupted mass results: a non-finite value
        # falls back to a sane one.
        if not (isfinite(m) and m >= 1.0):
            m = 1.0
        if not isfinite(weight):
            weight = m * aircraft.gravity
        if not isfinite(inertia):
            inertia = aircraft.pitch_inertia
        if 1.0 > inertia:
            inertia = 1.0

        # Angle of attack = attitude minus flight-path angle; this
        # is what makes the climb self-stabilising (as speed bleeds
        # the path shallows, alpha and lift recover).
        gamma, _, lift, drag = self._wing.forces(theta, vs, v, h, airspeed)

        _, friction, gear_drag, gear_on_ground = state.gear.step(
            harness, weight, lift, airspeed, aircraft.rho, h, dt
        )
        thrust = aircraft.thrust(airspeed) * throttle

        if gear_on_ground and h <= 0.0:
            accel = (thrust - drag - friction - gear_drag) / m
            if not isfinite(accel):
                accel = 0.0
            v = v + accel * dt
            if 0.0 > v:
                v = 0.0
            x = state.x + v * dt
            vs = 0.0
            if lift >= weight and theta > 0.01:
                lifted_off = True
                h = 0.01
                vs = 0.2
        else:
            lifted_off = True
            az = (lift - weight) / m
            if not isfinite(az):
                az = 0.0
            vs = vs + az * dt
            if 12.0 < vs:
                vs = 12.0
            if -12.0 > vs:
                vs = -12.0
            accel = (thrust - drag - weight * math.sin(gamma)) / m
            if not isfinite(accel):
                accel = 0.0
            v = v + accel * dt
            if 0.0 > v:
                v = 0.0
            x = state.x + v * dt
            h = h + vs * dt
            if h <= 0.0:
                h = 0.0
                vs = 0.0

        # Control module: a consistent input vector, as the paper's
        # control module provides.  Rotation at Vr to the target
        # attitude; once clear of the runway, a speed-hold pitch
        # law sustains the climb (pitch down when airspeed decays).
        if cleared_runway:
            # Climb-out attitude hold with stall protection: lower
            # the commanded attitude when airspeed decays towards
            # the climb target.
            shortfall = CLIMB_SPEED_TARGET_MS - airspeed
            if 0.0 > shortfall:
                shortfall = 0.0
            theta_cmd_deg = aircraft.target_pitch_deg - shortfall
            if 0.0 > theta_cmd_deg:
                theta_cmd_deg = 0.0
            q_cmd = 2.0 * (math.radians(theta_cmd_deg) - theta)
            if _CLIMB_RATE_MAX < q_cmd:
                q_cmd = _CLIMB_RATE_MAX
            if _CLIMB_RATE_MIN > q_cmd:
                q_cmd = _CLIMB_RATE_MIN
        elif throttle > 0.0 and airspeed >= aircraft.rotate_speed:
            state.passed_rotation = True
            if theta < self._target_pitch:
                cg_shaping = 1.0 - 0.3 * cg_offset
                if 0.0 > cg_shaping:
                    cg_shaping = 0.0
                q_cmd = self._pitch_rate_cmd * cg_shaping
            else:
                q_cmd = 0.0
        else:
            q_cmd = 0.0
        response = 900.0 / inertia
        if self._inverse_dt < response:
            response = self._inverse_dt
        q += (q_cmd - q) * response * dt
        if _RATE_MAX < q:
            q = _RATE_MAX
        if _RATE_MIN > q:
            q = _RATE_MIN
        theta = theta + q * dt
        if _PITCH_MAX < theta:
            theta = _PITCH_MAX
        if _PITCH_MIN > theta:
            theta = _PITCH_MIN

        # Summary tracking.
        if airspeed >= CRITICAL_SPEED_MS:
            state.passed_critical = True
        if airspeed > state.max_airspeed:
            state.max_airspeed = airspeed
        if not cleared_runway:
            pitch_rate_deg = abs(q) * _RAD_TO_DEG
            if pitch_rate_deg > state.max_pitch_rate_before_clear:
                state.max_pitch_rate_before_clear = pitch_rate_deg
            if h >= aircraft.runway_clear_height:
                cleared_runway = True
                state.distance_at_clear = x
        if lifted_off and h > 0.5 and airspeed < self._wing.stall_speed(weight):
            state.stalled = True

        state.v = v
        state.x = x
        state.h = h
        state.vs = vs
        state.theta = theta
        state.q = q
        state.lifted_off = lifted_off
        state.cleared_runway = cleared_runway
        state.iteration = iteration + 1
        return True

    def finish(self, state: _TakeoffState) -> FailureReport:
        cleared_runway = state.cleared_runway
        summary = TakeoffSummary(
            passed_critical_speed=state.passed_critical,
            passed_rotation_speed=state.passed_rotation,
            max_airspeed=round(state.max_airspeed, 6),
            lifted_off=state.lifted_off,
            cleared_runway=cleared_runway,
            distance_at_clear=(
                round(state.distance_at_clear, 6) if cleared_runway else math.inf
            ),
            max_pitch_rate_before_clear=round(
                state.max_pitch_rate_before_clear, 6
            ),
            stalled_during_climb=state.stalled,
        )
        return evaluate_takeoff(summary, state.scenario.mass_lbs)

    def is_failure(self, golden_output: object, run_output: object) -> bool:
        """FG's spec is absolute: the run fails if any category fires."""
        assert isinstance(run_output, FailureReport)
        return run_output.any_failure
