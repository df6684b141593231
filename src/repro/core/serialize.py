"""Predicate and detector serialisation.

Generated detectors are deployment artefacts: the team that runs the
methodology is rarely the team that embeds the assertion, so the
predicate needs a stable interchange form.  This module round-trips
predicates (and detectors with their program location) through plain
JSON-compatible dictionaries:

* comparisons keep their variable, operator, value and display label;
* conjunctions/disjunctions nest;
* ordering-style custom atoms are not representable and are rejected
  explicitly rather than silently dropped.
"""

from __future__ import annotations

import json

from repro.core.detector import Detector
from repro.core.predicate import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    Predicate,
    TruePredicate,
)
from repro.injection.instrument import Location, Probe

__all__ = [
    "SerializationError",
    "predicate_to_dict",
    "predicate_from_dict",
    "predicate_to_json",
    "predicate_from_json",
    "detector_to_dict",
    "detector_from_dict",
    "detector_to_json",
    "detector_from_json",
]


class SerializationError(ValueError):
    """Raised for unserialisable predicates or malformed payloads."""


def predicate_to_dict(predicate: Predicate) -> dict:
    """Convert a predicate into a JSON-compatible dictionary."""
    if isinstance(predicate, TruePredicate):
        return {"type": "true"}
    if isinstance(predicate, FalsePredicate):
        return {"type": "false"}
    if isinstance(predicate, Comparison):
        out = {
            "type": "comparison",
            "variable": predicate.variable,
            "op": predicate.op,
            "value": predicate.value,
        }
        if predicate.label is not None:
            out["label"] = predicate.label
        return out
    if isinstance(predicate, And):
        return {
            "type": "and",
            "children": [predicate_to_dict(c) for c in predicate.children],
        }
    if isinstance(predicate, Or):
        return {
            "type": "or",
            "children": [predicate_to_dict(c) for c in predicate.children],
        }
    raise SerializationError(
        f"predicate type {type(predicate).__name__} has no JSON form"
    )


def predicate_from_dict(payload: dict) -> Predicate:
    """Rebuild a predicate from its dictionary form."""
    try:
        kind = payload["type"]
    except (TypeError, KeyError):
        raise SerializationError("predicate payload needs a 'type'") from None
    if kind == "true":
        return TruePredicate()
    if kind == "false":
        return FalsePredicate()
    if kind == "comparison":
        try:
            return Comparison(
                payload["variable"],
                payload["op"],
                float(payload["value"]),
                label=payload.get("label"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SerializationError(f"bad comparison payload: {exc}") from exc
    if kind in ("and", "or"):
        children = payload.get("children")
        if not isinstance(children, list):
            raise SerializationError(f"'{kind}' payload needs children")
        rebuilt = [predicate_from_dict(c) for c in children]
        return And(rebuilt) if kind == "and" else Or(rebuilt)
    raise SerializationError(f"unknown predicate type {kind!r}")


def predicate_to_json(predicate: Predicate, indent: int | None = None) -> str:
    return json.dumps(predicate_to_dict(predicate), indent=indent)


def predicate_from_json(text: str) -> Predicate:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return predicate_from_dict(payload)


def detector_to_dict(detector: Detector) -> dict:
    """Serialise a detector (predicate + name + location)."""
    out = {
        "name": detector.name,
        "predicate": predicate_to_dict(detector.predicate),
    }
    if detector.location is not None:
        out["location"] = {
            "module": detector.location.module,
            "location": detector.location.location.value,
        }
    return out


def detector_from_dict(payload: dict) -> Detector:
    try:
        name = payload["name"]
        predicate = predicate_from_dict(payload["predicate"])
    except (TypeError, KeyError) as exc:
        raise SerializationError(f"bad detector payload: {exc}") from exc
    location = None
    if "location" in payload:
        spec = payload["location"]
        try:
            location = Probe(spec["module"], Location(spec["location"]))
        except (TypeError, KeyError, ValueError) as exc:
            raise SerializationError(f"bad location payload: {exc}") from exc
    return Detector(predicate, location=location, name=name)


def detector_to_json(detector: Detector, indent: int | None = None) -> str:
    """One-detector JSON document (the registry stores many)."""
    return json.dumps(detector_to_dict(detector), indent=indent)


def detector_from_json(text: str) -> Detector:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return detector_from_dict(payload)
