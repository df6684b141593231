"""The ``Mass`` module: fuel burn, total mass, weight and inertia.

Invoked once per control-loop iteration.  Fuel is a persistent module
variable (it burns over the run), so a transient bit flip in it has a
lasting effect -- exactly the behaviour the transient data value fault
model studies.  The flight dynamics loop consumes the weight, mass and
pitch inertia the *exit probe returns*, and the rotation controller
scales its pitch-rate command by the centre-of-gravity offset, so
every exposed variable is on a live path.
"""

from __future__ import annotations

import dataclasses

from repro.injection.instrument import Harness, Location
from repro.targets.flightgear.aircraft import Aircraft, Scenario, LBS_TO_KG

__all__ = ["MassModule", "MassState"]


@dataclasses.dataclass
class MassState:
    """Mass properties returned to the flight dynamics loop."""

    mass: float      # kg total
    weight: float    # N
    inertia: float   # kg m^2 effective pitch inertia
    cg_offset: float  # dimensionless CG offset from reference point


class MassModule:
    """Stateful mass & balance model.

    Slotted: the fields below are the module's whole state, which a
    run state snapshot pickles as flat scalars (:mod:`.takeoff`).  It
    copies the one aircraft constant a step reads, ``gravity``, rather
    than holding the aircraft.
    """

    __slots__ = (
        "gravity",
        "dry_mass",
        "fuel",
        "burn_rate",
        "cg_offset",
        "inertia_base",
    )

    def __init__(self, aircraft: Aircraft, scenario: Scenario) -> None:
        self.gravity = aircraft.gravity
        self.dry_mass = aircraft.dry_mass_lbs * LBS_TO_KG
        self.fuel = scenario.fuel_kg
        self.burn_rate = aircraft.fuel_burn_rate
        # CG drifts slightly aft as fuel burns; tiny but live.
        self.cg_offset = 0.02
        self.inertia_base = aircraft.pitch_inertia

    def step(self, harness: Harness, dt: float, throttle: float) -> MassState:
        state = harness.probe(
            "Mass",
            Location.ENTRY,
            {
                "fuel": self.fuel,
                "burn_rate": self.burn_rate,
                "dry_mass": self.dry_mass,
                "cg_offset": self.cg_offset,
                "inertia_base": self.inertia_base,
            },
        )
        fuel = float(state["fuel"])
        burn_rate = float(state["burn_rate"])
        dry_mass = float(state["dry_mass"])
        cg_offset = float(state["cg_offset"])
        inertia_base = float(state["inertia_base"])

        fuel = max(fuel - burn_rate * throttle * dt, 0.0)
        mass_total = dry_mass + fuel
        weight = mass_total * self.gravity
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
        self.fuel = float(exit_state["fuel"])
        self.burn_rate = burn_rate
        self.dry_mass = dry_mass
        self.cg_offset = float(exit_state["cg_offset"])
        self.inertia_base = inertia_base
        return MassState(
            mass=float(exit_state["mass_total"]),
            weight=float(exit_state["weight"]),
            inertia=float(exit_state["inertia_eff"]),
            cg_offset=float(exit_state["cg_offset"]),
        )
