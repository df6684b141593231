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
"""

from __future__ import annotations

import math
import operator

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


def _finite(value: float, fallback: float = 0.0) -> float:
    return value if math.isfinite(value) else fallback


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
        self.aircraft = Aircraft()

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
        """One control-loop iteration."""
        iteration = state.iteration
        if iteration >= self.init_iterations + self.run_iterations:
            return False
        scenario = state.scenario
        aircraft = self.aircraft
        dt = self.dt
        v, x, h, vs, theta, q = (
            state.v, state.x, state.h, state.vs, state.theta, state.q
        )
        lifted_off = state.lifted_off
        cleared_runway = state.cleared_runway

        throttle = 0.0 if iteration < self.init_iterations else 1.0
        airspeed = max(v + scenario.headwind_ms * throttle, 0.0)

        mass_state = state.mass.step(harness, dt, throttle)
        m = max(_finite(mass_state.mass, 1.0), 1.0)
        weight = _finite(mass_state.weight, m * aircraft.gravity)
        inertia = max(_finite(mass_state.inertia, aircraft.pitch_inertia), 1.0)

        # Angle of attack = attitude minus flight-path angle; this
        # is what makes the climb self-stabilising (as speed bleeds
        # the path shallows, alpha and lift recover).
        gamma = math.atan2(vs, max(v, 1.0)) if h > 0.0 else 0.0
        alpha = aero.angle_of_attack(theta, vs, v, h)
        cl = aero.lift_coefficient(aircraft, alpha)
        lift = aero.lift(aircraft, airspeed, cl)
        drag = aero.drag(aircraft, airspeed, cl)

        forces = state.gear.step(
            harness, weight, lift, airspeed, aircraft.rho, h, dt
        )
        thrust = aircraft.thrust(airspeed) * throttle

        on_ground = forces.on_ground and h <= 0.0
        if on_ground:
            accel = (thrust - drag - forces.friction - forces.drag) / m
            v = max(v + _finite(accel) * dt, 0.0)
            x += v * dt
            vs = 0.0
            if lift >= weight and theta > 0.01:
                lifted_off = True
                h = 0.01
                vs = 0.2
        else:
            lifted_off = True
            az = (lift - weight) / m
            vs = max(min(vs + _finite(az) * dt, 12.0), -12.0)
            accel = (thrust - drag - weight * math.sin(gamma)) / m
            v = max(v + _finite(accel) * dt, 0.0)
            x += v * dt
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
            theta_cmd_deg = aircraft.target_pitch_deg - max(
                CLIMB_SPEED_TARGET_MS - airspeed, 0.0
            )
            theta_cmd = math.radians(max(theta_cmd_deg, 0.0))
            q_cmd = max(
                min(2.0 * (theta_cmd - theta), math.radians(2.5)),
                math.radians(-2.5),
            )
        elif throttle > 0.0 and airspeed >= aircraft.rotate_speed:
            state.passed_rotation = True
            target_theta = math.radians(aircraft.target_pitch_deg)
            cg_shaping = max(1.0 - 0.3 * mass_state.cg_offset, 0.0)
            q_cmd = (
                math.radians(aircraft.pitch_rate_cmd_deg) * cg_shaping
                if theta < target_theta
                else 0.0
            )
        else:
            q_cmd = 0.0
        response = min(900.0 / inertia, 1.0 / dt)
        q += (q_cmd - q) * response * dt
        q = max(min(q, math.radians(30.0)), math.radians(-30.0))
        theta = max(min(theta + q * dt, math.radians(25.0)), math.radians(-8.0))

        # Summary tracking.
        if airspeed >= CRITICAL_SPEED_MS:
            state.passed_critical = True
        state.max_airspeed = max(state.max_airspeed, airspeed)
        if not cleared_runway:
            state.max_pitch_rate_before_clear = max(
                state.max_pitch_rate_before_clear, abs(q) * _RAD_TO_DEG
            )
            if h >= aircraft.runway_clear_height:
                cleared_runway = True
                state.distance_at_clear = x
        if lifted_off and h > 0.5:
            stall_speed = self._stall_speed(weight)
            if airspeed < stall_speed:
                state.stalled = True

        state.v, state.x, state.h, state.vs, state.theta, state.q = (
            v, x, h, vs, theta, q
        )
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

    def _stall_speed(self, weight: float) -> float:
        return aero.stall_speed(self.aircraft, weight)

    def is_failure(self, golden_output: object, run_output: object) -> bool:
        """FG's spec is absolute: the run fails if any category fires."""
        assert isinstance(run_output, FailureReport)
        return run_output.any_failure
