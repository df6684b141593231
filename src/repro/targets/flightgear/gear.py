"""The ``Gear`` module: landing gear ground reaction.

Invoked once per control-loop iteration.  While the aircraft is on the
runway the gear carries the weight not yet borne by the wings; the
module computes the oleo strut compression, the normal force, rolling
friction and the small aerodynamic drag of the gear legs.  Both the
entry state (strut constants, friction coefficient, ground flag) and
the exit state (computed forces) are live: the main loop integrates
the forces the *exit probe returns*, so bit flips at either location
propagate into the trajectory.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.injection.instrument import Harness, Location

__all__ = ["GearModule", "GearForces"]


class GearForces(NamedTuple):
    """Forces returned to the flight dynamics loop, which unpacks them."""

    normal: float     # N upward ground reaction
    friction: float   # N rearward rolling friction
    drag: float       # N rearward gear aerodynamic drag
    on_ground: bool


class GearModule:
    """Stateful gear model (strut compression persists across calls).

    Slotted: the fields below are the module's whole state, which a
    run state snapshot pickles as flat scalars (:mod:`.takeoff`).
    """

    __slots__ = (
        "spring_k",
        "damping",
        "mu_roll",
        "drag_coeff",
        "compression",
        "damaged",
        "_prev_compression",
    )

    #: Ground reaction beyond which the gear structure fails; the
    #: golden loads stay well below (max ~9.5 kN at the heaviest mass).
    STRUCTURAL_LIMIT = 25_000.0  # N

    def __init__(self) -> None:
        self.spring_k = 95_000.0      # N/m oleo strut stiffness
        self.damping = 6_000.0        # N s/m strut damping
        self.mu_roll = 0.02           # rolling friction coefficient
        self.drag_coeff = 0.9         # gear drag area coefficient (Cd*A)
        self.compression = 0.0        # m, persisted
        self.damaged = False          # latched structural damage
        self._prev_compression = 0.0

    def step(
        self,
        harness: Harness,
        weight: float,
        lift: float,
        airspeed: float,
        rho: float,
        altitude: float,
        dt: float,
    ) -> GearForces:
        on_ground = altitude <= 0.0
        state = harness.probe(
            "Gear",
            Location.ENTRY,
            {
                "compression": self.compression,
                "spring_k": self.spring_k,
                "damping": self.damping,
                "mu_roll": self.mu_roll,
                "drag_coeff": self.drag_coeff,
                "on_ground": on_ground,
            },
        )
        # The module continues with the (possibly corrupted) state.
        compression = float(state["compression"])
        spring_k = float(state["spring_k"])
        damping = float(state["damping"])
        mu_roll = float(state["mu_roll"])
        drag_coeff = float(state["drag_coeff"])
        on_ground = bool(state["on_ground"])

        if self.damaged:
            # A failed strut drags: collapsed wheel fairing and bent
            # leg raise rolling friction and drag until the run ends.
            mu_roll = mu_roll * 6.0
            drag_coeff = drag_coeff * 4.0

        # Clamps are written out as max()/min() would pick, NaN included.
        if on_ground:
            load = weight - lift
            if 0.0 > load:
                load = 0.0
            # Static strut compression under the current load, with a
            # guard against a corrupted (zero/negative) stiffness.
            target = load / spring_k if spring_k > 1.0 else 0.0
            rate = (target - compression) * (1e6 if 1e6 < damping else damping) * 1e-4
            compression = compression + rate * dt
            normal = load
            friction = mu_roll * normal
            drag = 0.5 * rho * airspeed * airspeed * drag_coeff * 0.1
        else:
            compression = compression - 0.5 * dt  # strut extends
            if 0.0 > compression:
                compression = 0.0
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
        self._prev_compression = self.compression
        self.compression = float(exit_state["compression"])
        # Persist the *pre-damage* coefficients so damage multiplies
        # the nominal values, not itself, on later iterations.
        if self.damaged:
            mu_roll /= 6.0
            drag_coeff /= 4.0
        self.mu_roll = float(exit_state["mu_roll"]) if not self.damaged else mu_roll
        self.spring_k = spring_k
        self.damping = damping
        self.drag_coeff = drag_coeff
        normal = float(exit_state["normal_force"])
        # Structural damage latches when the reported ground reaction
        # exceeds what the gear can carry (the exit state is what the
        # airframe's load monitor would see).
        if abs(normal) > self.STRUCTURAL_LIMIT:
            self.damaged = True
        # tuple.__new__ builds the NamedTuple without its Python-level
        # constructor call.
        return tuple.__new__(
            GearForces,
            (
                normal,
                float(exit_state["friction"]),
                float(exit_state["gear_drag"]),
                bool(exit_state["on_ground"]),
            ),
        )

    @staticmethod
    def entry_variables() -> tuple[str, ...]:
        return (
            "compression",
            "spring_k",
            "damping",
            "mu_roll",
            "drag_coeff",
            "on_ground",
        )

    @staticmethod
    def exit_variables() -> tuple[str, ...]:
        return (
            "compression",
            "normal_force",
            "friction",
            "gear_drag",
            "mu_roll",
            "on_ground",
        )
