"""Longitudinal aerodynamics of the takeoff simulator.

Each law is written once, in :meth:`Wing.forces`, the one
aerodynamics call a control-loop unit of
:mod:`repro.targets.flightgear.takeoff` makes:
the flight-path angle, angle of attack = attitude minus flight-path
angle, a linear lift slope capped at CL_max and floored at a small
negative, q*S = 1/2 rho v^2 S computed once, lift = q*S * CL and
parasitic plus induced drag = q*S * (Cd0 + k*CL^2).  A :class:`Wing`
holds the airframe constants, built once per target
(:func:`wing_of`) with the products a unit would otherwise redo
(``0.5 * rho`` and ``rho * S * CL_max``).  :meth:`Wing.stall_speed`
is the one other law.

The per-law functions (:func:`angle_of_attack`,
:func:`lift_coefficient`, :func:`lift`, :func:`drag`,
:func:`stall_speed`) evaluate those two methods on an
:class:`~repro.targets.flightgear.aircraft.Aircraft` and keep the
laws unit-testable against textbook
behaviour (lift quadratic in airspeed, stall speed scaling with
sqrt(weight), induced drag quadratic in lift coefficient).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.targets.flightgear.aircraft import Aircraft

__all__ = [
    "Wing",
    "wing_of",
    "angle_of_attack",
    "lift_coefficient",
    "lift",
    "drag",
    "stall_speed",
]

#: Lift coefficient floor of the lift curve.
CL_FLOOR = -0.2


class Wing(NamedTuple):
    """An airframe's aerodynamic constants, with the products a unit
    would otherwise redo (``0.5 * rho``, ``rho * S * CL_max``)."""

    half_rho: float    # 0.5 * rho
    wing_area: float   # S
    cl_ground: float
    cl_alpha: float
    cl_max: float
    cl_floor: float
    cd0: float
    induced_k: float
    stall_lift: float  # rho * S * CL_max

    def forces(
        self, theta: float, vs: float, v: float, altitude: float, airspeed: float
    ) -> tuple[float, float, float, float]:
        """``(gamma, CL, lift, drag)`` at attitude ``theta``.

        The flight-path angle ``gamma`` is zero on the ground and
        ``atan2(vs, max(v, 1))`` in the air; the angle of attack is
        ``theta - gamma``.  Every clamp keeps ``min``/``max``
        semantics (NaN passes through), so the results are bit for
        bit the laws'.
        """
        half_rho, wing_area, cl_ground, cl_alpha, cl_max, cl_floor, cd0, k, _ = self
        if altitude > 0.0:
            gamma = math.atan2(vs, 1.0 if 1.0 > v else v)
        else:
            gamma = 0.0
        cl = cl_ground + cl_alpha * (theta - gamma)
        if cl_max < cl:
            cl = cl_max
        if cl_floor > cl:
            cl = cl_floor
        qs = half_rho * airspeed * airspeed * wing_area
        return gamma, cl, qs * cl, qs * (cd0 + k * cl * cl)

    def stall_speed(self, weight: float) -> float:
        """Speed below which CL_max cannot carry the weight (a weight
        below 1 N counts as 1 N)."""
        return math.sqrt(2.0 * (1.0 if 1.0 > weight else weight) / self.stall_lift)


def wing_of(aircraft: Aircraft) -> Wing:
    return Wing(
        0.5 * aircraft.rho,
        aircraft.wing_area,
        aircraft.cl_ground,
        aircraft.cl_alpha,
        aircraft.cl_max,
        CL_FLOOR,
        aircraft.cd0,
        aircraft.induced_k,
        aircraft.rho * aircraft.wing_area * aircraft.cl_max,
    )


#: Any wing serves :func:`angle_of_attack`: the angle needs no constant.
_REFERENCE_WING = wing_of(Aircraft())


def _given(aircraft: Aircraft) -> Wing:
    """The aircraft's wing with the lift curve replaced by the identity:
    on the ground, its CL at attitude ``cl`` is ``cl`` exactly
    (``-0.0 + 1.0 * cl`` is ``cl`` for every float, signed zeros and
    NaN included)."""
    return wing_of(aircraft)._replace(
        cl_ground=-0.0, cl_alpha=1.0, cl_max=math.inf, cl_floor=-math.inf
    )


def angle_of_attack(theta: float, vs: float, v: float, altitude: float) -> float:
    """Angle of attack = attitude minus flight-path angle (rad).

    On the ground the flight path is horizontal, so alpha = theta.
    """
    return theta - _REFERENCE_WING.forces(theta, vs, v, altitude, 0.0)[0]


def lift_coefficient(aircraft: Aircraft, alpha: float) -> float:
    """Linear lift slope capped at CL_max, floored at a small negative."""
    return wing_of(aircraft).forces(alpha, 0.0, 0.0, 0.0, 0.0)[1]


def lift(aircraft: Aircraft, airspeed: float, cl: float) -> float:
    return _given(aircraft).forces(cl, 0.0, 0.0, 0.0, airspeed)[2]


def drag(aircraft: Aircraft, airspeed: float, cl: float) -> float:
    """Parasitic plus induced drag: q*S * (Cd0 + k*CL^2)."""
    return _given(aircraft).forces(cl, 0.0, 0.0, 0.0, airspeed)[3]


def stall_speed(aircraft: Aircraft, weight: float) -> float:
    """Speed below which CL_max cannot carry the weight."""
    return wing_of(aircraft).stall_speed(weight)
