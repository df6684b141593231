"""Reference FlightGear control-loop unit: the oracle for the fused one.

The takeoff unit as it was written law by law -- one aerodynamics
helper per law, each module result a dataclass, every clamp a
``min``/``max`` call and every guard a helper -- before
:meth:`repro.targets.flightgear.takeoff.FlightGearTarget.advance` fused
it.  It runs on the package's own run states and modules, so the two
units can be compared on the pickled bytes of the state they leave and
on the probe dicts they pass (``tests/targets/test_fg_unit.py``).

Keep this file as it is: it is the definition the fused unit must
match bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

from repro.injection.instrument import Harness, Location
from repro.targets.flightgear.spec import CRITICAL_SPEED_MS
from repro.targets.flightgear.takeoff import CLIMB_SPEED_TARGET_MS

_RAD_TO_DEG = 180.0 / math.pi

#: The gear's structural limit (N), as in ``GearModule.STRUCTURAL_LIMIT``.
STRUCTURAL_LIMIT = 25_000.0


# -- aerodynamics, one helper per law ------------------------------------
def angle_of_attack(theta, vs, v, altitude):
    gamma = math.atan2(vs, max(v, 1.0)) if altitude > 0.0 else 0.0
    return theta - gamma


def lift_coefficient(aircraft, alpha):
    cl = min(aircraft.cl_ground + aircraft.cl_alpha * alpha, aircraft.cl_max)
    return max(cl, -0.2)


def dynamic_pressure(aircraft, airspeed):
    return 0.5 * aircraft.rho * airspeed * airspeed * aircraft.wing_area


def lift(aircraft, airspeed, cl):
    return dynamic_pressure(aircraft, airspeed) * cl


def drag(aircraft, airspeed, cl):
    return dynamic_pressure(aircraft, airspeed) * (
        aircraft.cd0 + aircraft.induced_k * cl * cl
    )


def stall_speed(aircraft, weight):
    weight = max(weight, 1.0)
    return math.sqrt(
        2.0 * weight / (aircraft.rho * aircraft.wing_area * aircraft.cl_max)
    )


def _finite(value, fallback=0.0):
    return value if math.isfinite(value) else fallback


# -- the two probed modules ----------------------------------------------
@dataclasses.dataclass
class GearForces:
    normal: float
    friction: float
    drag: float
    on_ground: bool


@dataclasses.dataclass
class MassState:
    mass: float
    weight: float
    inertia: float
    cg_offset: float


def gear_step(gear, harness: Harness, weight, lift, airspeed, rho, altitude, dt):
    """``GearModule.step`` on ``gear``."""
    on_ground = altitude <= 0.0
    state = harness.probe(
        "Gear",
        Location.ENTRY,
        {
            "compression": gear.compression,
            "spring_k": gear.spring_k,
            "damping": gear.damping,
            "mu_roll": gear.mu_roll,
            "drag_coeff": gear.drag_coeff,
            "on_ground": on_ground,
        },
    )
    compression = float(state["compression"])
    spring_k = float(state["spring_k"])
    damping = float(state["damping"])
    mu_roll = float(state["mu_roll"])
    drag_coeff = float(state["drag_coeff"])
    on_ground = bool(state["on_ground"])

    if gear.damaged:
        mu_roll = mu_roll * 6.0
        drag_coeff = drag_coeff * 4.0

    if on_ground:
        load = max(weight - lift, 0.0)
        target = load / spring_k if spring_k > 1.0 else 0.0
        rate = (target - compression) * min(damping, 1e6) * 1e-4
        compression = compression + rate * dt
        normal = load
        friction = mu_roll * normal
        drag = 0.5 * rho * airspeed * airspeed * drag_coeff * 0.1
    else:
        compression = max(compression - 0.5 * dt, 0.0)
        normal = 0.0
        friction = 0.0
        drag = 0.5 * rho * airspeed * airspeed * drag_coeff * 0.05

    exit_state = harness.probe(
        "Gear",
        Location.EXIT,
        {
            "compression": compression,
            "normal_force": normal,
            "friction": friction,
            "gear_drag": drag,
            "mu_roll": mu_roll,
            "on_ground": on_ground,
        },
    )
    gear._prev_compression = gear.compression
    gear.compression = float(exit_state["compression"])
    if gear.damaged:
        mu_roll /= 6.0
        drag_coeff /= 4.0
    gear.mu_roll = float(exit_state["mu_roll"]) if not gear.damaged else mu_roll
    gear.spring_k = spring_k
    gear.damping = damping
    gear.drag_coeff = drag_coeff
    forces = GearForces(
        normal=float(exit_state["normal_force"]),
        friction=float(exit_state["friction"]),
        drag=float(exit_state["gear_drag"]),
        on_ground=bool(exit_state["on_ground"]),
    )
    if abs(forces.normal) > STRUCTURAL_LIMIT:
        gear.damaged = True
    return forces


def mass_step(mass, harness: Harness, dt, throttle):
    """``MassModule.step`` on ``mass``."""
    state = harness.probe(
        "Mass",
        Location.ENTRY,
        {
            "fuel": mass.fuel,
            "burn_rate": mass.burn_rate,
            "dry_mass": mass.dry_mass,
            "cg_offset": mass.cg_offset,
            "inertia_base": mass.inertia_base,
        },
    )
    fuel = float(state["fuel"])
    burn_rate = float(state["burn_rate"])
    dry_mass = float(state["dry_mass"])
    cg_offset = float(state["cg_offset"])
    inertia_base = float(state["inertia_base"])

    fuel = max(fuel - burn_rate * throttle * dt, 0.0)
    mass_total = dry_mass + fuel
    weight = mass_total * mass.gravity
    inertia_eff = inertia_base * (1.0 + 0.1 * cg_offset)

    exit_state = harness.probe(
        "Mass",
        Location.EXIT,
        {
            "fuel": fuel,
            "burn_rate": burn_rate,
            "dry_mass": dry_mass,
            "cg_offset": cg_offset,
            "inertia_base": inertia_base,
            "mass_total": mass_total,
            "weight": weight,
            "inertia_eff": inertia_eff,
        },
    )
    mass.fuel = float(exit_state["fuel"])
    mass.burn_rate = burn_rate
    mass.dry_mass = dry_mass
    mass.cg_offset = float(exit_state["cg_offset"])
    mass.inertia_base = inertia_base
    return MassState(
        mass=float(exit_state["mass_total"]),
        weight=float(exit_state["weight"]),
        inertia=float(exit_state["inertia_eff"]),
        cg_offset=float(exit_state["cg_offset"]),
    )


# -- the control-loop unit -------------------------------------------------
def advance(target, state, harness: Harness) -> bool:
    """``FlightGearTarget.advance``: one control-loop iteration."""
    iteration = state.iteration
    if iteration >= target.init_iterations + target.run_iterations:
        return False
    scenario = state.scenario
    aircraft = target.aircraft
    dt = target.dt
    v, x, h, vs, theta, q = (
        state.v, state.x, state.h, state.vs, state.theta, state.q
    )
    lifted_off = state.lifted_off
    cleared_runway = state.cleared_runway

    throttle = 0.0 if iteration < target.init_iterations else 1.0
    airspeed = max(v + scenario.headwind_ms * throttle, 0.0)

    mass_state = mass_step(state.mass, harness, dt, throttle)
    m = max(_finite(mass_state.mass, 1.0), 1.0)
    weight = _finite(mass_state.weight, m * aircraft.gravity)
    inertia = max(_finite(mass_state.inertia, aircraft.pitch_inertia), 1.0)

    gamma = math.atan2(vs, max(v, 1.0)) if h > 0.0 else 0.0
    alpha = angle_of_attack(theta, vs, v, h)
    cl = lift_coefficient(aircraft, alpha)
    lift_n = lift(aircraft, airspeed, cl)
    drag_n = drag(aircraft, airspeed, cl)

    forces = gear_step(state.gear, harness, weight, lift_n, airspeed, aircraft.rho, h, dt)
    thrust = aircraft.thrust(airspeed) * throttle

    on_ground = forces.on_ground and h <= 0.0
    if on_ground:
        accel = (thrust - drag_n - forces.friction - forces.drag) / m
        v = max(v + _finite(accel) * dt, 0.0)
        x += v * dt
        vs = 0.0
        if lift_n >= weight and theta > 0.01:
            lifted_off = True
            h = 0.01
            vs = 0.2
    else:
        lifted_off = True
        az = (lift_n - weight) / m
        vs = max(min(vs + _finite(az) * dt, 12.0), -12.0)
        accel = (thrust - drag_n - weight * math.sin(gamma)) / m
        v = max(v + _finite(accel) * dt, 0.0)
        x += v * dt
        h = h + vs * dt
        if h <= 0.0:
            h = 0.0
            vs = 0.0

    if cleared_runway:
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
        if airspeed < stall_speed(aircraft, weight):
            state.stalled = True

    state.v, state.x, state.h, state.vs, state.theta, state.q = (
        v, x, h, vs, theta, q
    )
    state.lifted_off = lifted_off
    state.cleared_runway = cleared_runway
    state.iteration = iteration + 1
    return True
