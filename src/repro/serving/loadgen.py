"""Seeded load generation for served detectors.

The generator reads a detector registry, collects every comparison
threshold the published predicates test, and synthesises states that
straddle those thresholds -- so a stream exercises both branches of
every detector (some events flag, most don't) instead of streaming
inert noise.  Everything is seeded: the same ``(registry, seed, n)``
triple produces the same event stream, which is what lets a replay
through :class:`~repro.runtime.engine.StreamingEngine` be pinned to
bit-identical flags.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator

import numpy as np

from repro.core.predicate import And, Comparison, Or, Predicate
from repro.runtime.registry import DetectorRegistry

__all__ = ["LoadProfile", "synthesize_states"]


@dataclasses.dataclass(frozen=True)
class LoadProfile:
    """Shape of a synthetic event stream."""

    #: events to generate.
    events: int = 1000
    #: deterministic stream seed.
    seed: int = 0
    #: fraction of events pushed past a random threshold (flag-prone).
    hot_fraction: float = 0.1
    #: fraction of events with one variable dropped (missing data).
    missing_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.events < 0:
            raise ValueError(f"events must be >= 0, got {self.events}")
        for field in ("hot_fraction", "missing_fraction"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {value}")


def _thresholds(predicate: Predicate) -> dict[str, list[float]]:
    out: dict[str, set[float]] = {v: set() for v in predicate.variables()}

    def collect(node: Predicate) -> None:
        if isinstance(node, Comparison):
            out.setdefault(node.variable, set()).add(node.value)
        elif isinstance(node, (And, Or)):
            for child in node.children:
                collect(child)

    collect(predicate)
    return {
        variable: sorted(v for v in values if math.isfinite(v)) or [0.0]
        for variable, values in out.items()
    }


def synthesize_states(
    registry: DetectorRegistry,
    profile: LoadProfile | None = None,
) -> Iterator[dict[str, float]]:
    """Yield ``profile.events`` states tuned to ``registry``'s detectors.

    Baseline events sit in the neighbourhood of the published
    thresholds (uniform within ±2 of each variable's threshold span);
    a ``hot_fraction`` of events push one variable decisively past a
    randomly chosen threshold, and a ``missing_fraction`` drop one
    variable entirely -- exercising the NaN/absence semantics the
    runtime documents.
    """
    profile = profile if profile is not None else LoadProfile()
    thresholds: dict[str, list[float]] = {}
    for entry in registry.latest():
        for variable, values in _thresholds(entry.compiled.lowered).items():
            thresholds.setdefault(variable, [])
            thresholds[variable] = sorted(set(thresholds[variable]) | set(values))
    if not thresholds:
        thresholds = {"x": [0.0]}
    variables = sorted(thresholds)
    rng = np.random.default_rng(profile.seed)
    lows = {v: min(thresholds[v]) - 2.0 for v in variables}
    highs = {v: max(thresholds[v]) + 2.0 for v in variables}
    for _ in range(profile.events):
        state = {
            v: float(rng.uniform(lows[v], highs[v])) for v in variables
        }
        if variables and rng.random() < profile.hot_fraction:
            victim = variables[int(rng.integers(len(variables)))]
            pivot = thresholds[victim][
                int(rng.integers(len(thresholds[victim])))
            ]
            state[victim] = float(pivot + rng.choice((-1.0, 1.0)) * 3.0)
        if variables and rng.random() < profile.missing_fraction:
            state.pop(variables[int(rng.integers(len(variables)))], None)
        yield state
