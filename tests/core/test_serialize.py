"""Tests for predicate/detector JSON serialisation."""

import pytest
from hypothesis import given, settings

from repro.core.detector import Detector
from repro.core.predicate import (
    And,
    Comparison,
    FalsePredicate,
    Or,
    TruePredicate,
)
from repro.core.serialize import (
    SerializationError,
    detector_from_dict,
    detector_to_dict,
    predicate_from_dict,
    predicate_from_json,
    predicate_to_dict,
    predicate_to_json,
)
from repro.injection.instrument import Location, Probe
from tests.core.test_predicate import predicates


SAMPLE = Or([
    And([Comparison("v", ">", 1.5), Comparison("flag", "==", 1.0, label="on")]),
    Comparison("w", "<=", -2.0),
])


class TestPredicateRoundTrip:
    def test_constants(self):
        assert predicate_from_dict(predicate_to_dict(TruePredicate())) == (
            TruePredicate()
        )
        assert predicate_from_dict(predicate_to_dict(FalsePredicate())) == (
            FalsePredicate()
        )

    def test_comparison_with_label(self):
        atom = Comparison("flag", "==", 1.0, label="on")
        again = predicate_from_dict(predicate_to_dict(atom))
        assert again == atom
        assert again.label == "on"

    def test_nested_structure(self):
        again = predicate_from_json(predicate_to_json(SAMPLE))
        assert again == SAMPLE

    def test_evaluation_preserved(self):
        again = predicate_from_json(predicate_to_json(SAMPLE))
        for state in ({"v": 2.0, "flag": True, "w": 0.0},
                      {"v": 0.0, "flag": False, "w": -3.0},
                      {"v": 0.0, "flag": False, "w": 0.0}):
            assert again.evaluate(state) == SAMPLE.evaluate(state)

    @given(predicate=predicates())
    @settings(deadline=None, max_examples=100)
    def test_roundtrip_property(self, predicate):
        assert predicate_from_json(predicate_to_json(predicate)) == predicate


class TestErrors:
    def test_unknown_type(self):
        with pytest.raises(SerializationError):
            predicate_from_dict({"type": "xor"})

    def test_missing_type(self):
        with pytest.raises(SerializationError):
            predicate_from_dict({})

    def test_bad_comparison(self):
        with pytest.raises(SerializationError):
            predicate_from_dict({"type": "comparison", "variable": "v"})
        # Values a float cannot hold: 1e400 reads as inf, a 401-digit
        # int literal stays an int.
        for value in (10**400, -(10**400)):
            payload = {"type": "comparison", "variable": "x", "op": "<=",
                       "value": value}
            with pytest.raises(SerializationError):
                predicate_from_dict(payload)
        for literal in ("1e400", str(10**400), str(-(10**400))):
            with pytest.raises(SerializationError):
                predicate_from_json(
                    '{"type":"comparison","variable":"x","op":"<=",'
                    f'"value":{literal}}}'
                )

    def test_bad_children(self):
        with pytest.raises(SerializationError):
            predicate_from_dict({"type": "and", "children": "nope"})

    def test_invalid_json(self):
        with pytest.raises(SerializationError):
            predicate_from_json("{not json")

    def test_custom_atom_rejected(self):
        from repro.baselines.invariants import _OrderingViolation

        with pytest.raises(SerializationError):
            predicate_to_dict(_OrderingViolation("a", "b"))


class TestDetectorRoundTrip:
    def test_with_location(self):
        detector = Detector(
            SAMPLE, location=Probe("Gear", Location.ENTRY), name="d1"
        )
        again = detector_from_dict(detector_to_dict(detector))
        assert again.name == "d1"
        assert again.location == Probe("Gear", Location.ENTRY)
        assert again.predicate == SAMPLE

    def test_without_location(self):
        detector = Detector(TruePredicate(), name="d2")
        again = detector_from_dict(detector_to_dict(detector))
        assert again.location is None
        assert again.name == "d2"

    def test_bad_payloads(self):
        with pytest.raises(SerializationError):
            detector_from_dict({"name": "x"})
        with pytest.raises(SerializationError):
            detector_from_dict(
                {"name": "x", "predicate": {"type": "true"},
                 "location": {"module": "M", "location": "middle"}}
            )
        for value in (10**400, -(10**400)):
            with pytest.raises(SerializationError):
                detector_from_dict(
                    {"name": "x",
                     "predicate": {"type": "comparison", "variable": "v",
                                   "op": ">", "value": value}}
                )
