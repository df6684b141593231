"""Registry semantics: versioning, lookup, persist/reload."""

import json

import pytest

from repro.core.detector import Detector
from repro.core.predicate import And, Comparison, Or
from repro.core.serialize import SerializationError
from repro.injection.instrument import Location, Probe
from repro.runtime.registry import (
    DetectorRegistry,
    RegistryError,
    RegistryWarning,
)

P1 = Comparison("v", ">", 5.0)
P2 = Or([Comparison("v", "<=", 1.0), Comparison("w", "==", 0.0)])
P3 = And([Comparison("u", "!=", 3.0), Comparison("v", ">", 0.0)])


def make_registry() -> DetectorRegistry:
    registry = DetectorRegistry()
    registry.register(Detector(P1, name="entry"))
    registry.register(Detector(P2, name="entry"))  # v2
    registry.register(
        Detector(P3, location=Probe("MG", Location.EXIT), name="exit")
    )
    return registry


class TestVersioning:
    def test_versions_auto_increment(self):
        registry = make_registry()
        assert registry.versions("entry") == [1, 2]
        assert registry.versions("exit") == [1]

    def test_lookup_defaults_to_latest(self):
        registry = make_registry()
        assert registry.lookup("entry").version == 2
        assert registry.lookup("entry").detector.predicate == P2

    def test_lookup_pinned_version(self):
        registry = make_registry()
        assert registry.lookup("entry", version=1).detector.predicate == P1

    def test_published_versions_are_immutable(self):
        registry = make_registry()
        with pytest.raises(RegistryError):
            registry.register(Detector(P1, name="entry"), version=2)

    def test_unknown_lookups_raise(self):
        registry = make_registry()
        with pytest.raises(RegistryError):
            registry.lookup("nope")
        with pytest.raises(RegistryError):
            registry.lookup("entry", version=9)

    def test_registration_is_compiled(self):
        entry = make_registry().lookup("entry")
        assert entry.compiled.mode == "compiled"
        assert entry.compiled.evaluate({"v": 0.5}) is True

    def test_unregister(self):
        registry = make_registry()
        registry.unregister("entry", version=2)
        assert registry.lookup("entry").version == 1
        registry.unregister("entry")
        assert "entry" not in registry
        with pytest.raises(RegistryError):
            registry.unregister("entry")

    def test_latest_and_len(self):
        registry = make_registry()
        assert len(registry) == 3
        assert [e.name for e in registry.latest()] == ["entry", "exit"]


class TestPersistence:
    def test_round_trip(self, tmp_path):
        registry = make_registry()
        path = registry.save(tmp_path / "registry.json")
        loaded = DetectorRegistry.load(path)
        assert loaded.names() == registry.names()
        assert loaded.versions("entry") == [1, 2]
        for entry in registry:
            twin = loaded.lookup(entry.name, entry.version)
            assert twin.detector.predicate == entry.detector.predicate
        # Locations survive.
        assert str(loaded.lookup("exit").detector.location) == "MG@exit"

    def test_reloaded_registry_serves(self, tmp_path):
        path = make_registry().save(tmp_path / "registry.json")
        loaded = DetectorRegistry.load(path)
        entry = loaded.lookup("entry")
        assert entry.compiled.mode == "compiled"
        state = {"v": 0.0, "w": 0.0}
        assert entry.compiled.evaluate(state) == P2.evaluate(state)

    def test_document_is_plain_json(self, tmp_path):
        path = make_registry().save(tmp_path / "registry.json")
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.runtime.registry"
        assert payload["version"] == 1
        assert len(payload["detectors"]) == 3

    def test_malformed_documents_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(SerializationError):
            DetectorRegistry.load(bad)
        bad.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(SerializationError):
            DetectorRegistry.load(bad)
        bad.write_text(
            json.dumps(
                {"format": "repro.runtime.registry", "version": 99,
                 "detectors": []}
            )
        )
        with pytest.raises(SerializationError):
            DetectorRegistry.load(bad)
        # A saved registry whose comparison value is an int beyond the
        # float range.
        payload = json.loads(make_registry().save(bad).read_text())
        atom = payload["detectors"][0]["detector"]["predicate"]
        assert atom["type"] == "comparison"
        atom["value"] = 10**400
        bad.write_text(json.dumps(payload))
        with pytest.raises(SerializationError):
            DetectorRegistry.load(bad)


UNSAT = And([Comparison("v", "<=", 1.0), Comparison("v", ">", 5.0)])


class TestLintGating:
    def test_reject_refuses_unsatisfiable(self):
        registry = DetectorRegistry(lint_policy="reject")
        with pytest.raises(RegistryError, match="refusing to publish"):
            registry.publish(Detector(UNSAT, name="bad"))
        assert "bad" not in registry

    def test_warn_publishes_with_warning(self):
        registry = DetectorRegistry()  # warn is the default
        with pytest.warns(RegistryWarning, match="bad"):
            registry.publish(Detector(UNSAT, name="bad"))
        assert registry.lookup("bad").version == 1

    def test_off_is_silent(self, recwarn):
        registry = DetectorRegistry(lint_policy="off")
        registry.publish(Detector(UNSAT, name="bad"))
        assert not [w for w in recwarn if issubclass(w.category, RegistryWarning)]

    def test_per_call_override(self):
        registry = DetectorRegistry(lint_policy="reject")
        registry.publish(Detector(UNSAT, name="bad"), lint_policy="off")
        assert "bad" in registry

    def test_duplicate_of_other_name_flagged(self):
        registry = DetectorRegistry(lint_policy="reject")
        registry.publish(Detector(P1, name="a"))
        with pytest.raises(RegistryError, match="equivalent"):
            registry.publish(Detector(Comparison("v", ">", 5.0), name="b"))

    def test_version_bump_of_same_name_allowed(self):
        registry = DetectorRegistry(lint_policy="reject")
        registry.publish(Detector(P1, name="a"))
        # Republishing an equivalent predicate under the SAME name is the
        # sanctioned supersede path and must not be rejected.
        registry.publish(Detector(Comparison("v", ">", 5.0), name="a"))
        assert registry.versions("a") == [1, 2]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            DetectorRegistry(lint_policy="loud")

    def test_saved_artefact_loads_despite_policy(self, tmp_path):
        registry = DetectorRegistry(lint_policy="off")
        registry.publish(Detector(UNSAT, name="bad"))
        path = registry.save(tmp_path / "registry.json")
        loaded = DetectorRegistry.load(path)
        assert "bad" in loaded


class TestRollback:
    """Hot-deploy rollback: re-pointing ``latest`` at a prior version."""

    def test_rollback_repoints_latest(self):
        registry = make_registry()  # entry has v1 and v2
        assert registry.lookup("entry").version == 2
        entry = registry.rollback("entry")
        assert entry.version == 1
        assert registry.lookup("entry").version == 1
        # The rolled-back version stays published; explicit lookups work.
        assert registry.lookup("entry", version=2).detector.predicate == P2

    def test_latest_helpers_follow_the_pointer(self):
        registry = make_registry()
        registry.rollback("entry")
        assert registry.latest_version("entry") == 1
        assert {e.name: e.version for e in registry.latest()} == {
            "entry": 1,
            "exit": 1,
        }

    def test_rollback_without_prior_version_fails(self):
        registry = make_registry()
        with pytest.raises(RegistryError, match="no prior version"):
            registry.rollback("exit")  # only v1 exists
        registry.rollback("entry")  # v2 -> v1
        with pytest.raises(RegistryError, match="no prior version"):
            registry.rollback("entry")  # already at the floor

    def test_rollback_unknown_name_fails(self):
        with pytest.raises(RegistryError, match="unknown detector"):
            make_registry().rollback("ghost")

    def test_repeated_rollback_walks_versions_in_order(self):
        registry = DetectorRegistry()
        for threshold in (1.0, 2.0, 3.0):
            registry.register(Detector(Comparison("v", ">", threshold), name="d"))
        assert registry.rollback("d").version == 2
        assert registry.rollback("d").version == 1

    def test_fresh_publish_supersedes_rollback(self):
        registry = make_registry()
        registry.rollback("entry")
        registry.register(Detector(P3, name="entry"), lint_policy="off")  # v3
        assert registry.lookup("entry").version == 3

    def test_action_recorded(self):
        registry = make_registry()
        registry.rollback("entry")
        assert registry.actions == [
            {
                "action": "rollback",
                "name": "entry",
                "from_version": 2,
                "to_version": 1,
            }
        ]

    def test_rollback_survives_persistence(self, tmp_path):
        registry = make_registry()
        registry.rollback("entry")
        loaded = DetectorRegistry.load(registry.save(tmp_path / "r.json"))
        assert loaded.lookup("entry").version == 1
        assert loaded.actions == registry.actions
        # ... and the pointer is still live state, not just a record.
        loaded.register(Detector(P3, name="entry"), lint_policy="off")
        assert loaded.lookup("entry").version == 3

    def test_snapshot_without_rollback_has_no_pointer_keys(self, tmp_path):
        registry = make_registry()
        payload = registry.to_dict()
        assert "latest" not in payload
        assert "actions" not in payload

    def test_unregister_of_pointed_version_clears_pointer(self):
        registry = make_registry()
        registry.rollback("entry")  # pointer -> v1
        registry.unregister("entry", version=1)
        assert registry.lookup("entry").version == 2
