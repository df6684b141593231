"""Versioned detector registry: publish once, serve anywhere.

The methodology's campaigns (the offline side) and the serving engine
(the online side) meet here: a campaign **registers** a generated
detector under a name, the registry assigns a monotonically increasing
version, and a server **looks up** the latest (or a pinned) version.
Registrations are compiled on the way in (see
:mod:`repro.runtime.compile`), so lookup hands back a serving-ready
:class:`RegisteredDetector`.

Persistence builds on :mod:`repro.core.serialize`: ``save`` writes a
single JSON document (format ``repro.runtime.registry`` v1) with every
version of every detector, ``load`` rebuilds the registry -- including
recompilation -- so a server can start from a published artefact with
no access to the mining pipeline.

Publishing is statically gated (see :mod:`repro.analysis`): a detector
whose predicate has an error-grade lint finding (an unsatisfiable
clause, a provably constant predicate), or that is provably equivalent
to / implied by an already-published name, triggers the registry's
``lint_policy`` -- ``"warn"`` (default, emits :class:`RegistryWarning`),
``"reject"`` (raises :class:`RegistryError`) or ``"off"``.  ``load`` /
``from_dict`` rebuild with gating off: an artefact that was publishable
when written must stay loadable.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import warnings

from repro.analysis.lint import LintContext, Linter, Severity
from repro.analysis.redundancy import compare_predicates
from repro.core.detector import Detector
from repro.core.serialize import (
    SerializationError,
    detector_from_dict,
    detector_to_dict,
)
from repro.runtime.compile import CompiledPredicate, compile_predicate

__all__ = [
    "DetectorRegistry",
    "RegisteredDetector",
    "RegistryError",
    "RegistryWarning",
]

_FORMAT = "repro.runtime.registry"
_FORMAT_VERSION = 1

_LINT_POLICIES = ("warn", "reject", "off")


class RegistryError(KeyError):
    """Unknown detector/version, or a conflicting registration."""


class RegistryWarning(UserWarning):
    """A publish went through despite static findings (policy "warn")."""


@dataclasses.dataclass(frozen=True)
class RegisteredDetector:
    """One published (name, version) with its compiled predicate."""

    name: str
    version: int
    detector: Detector
    compiled: CompiledPredicate

    def __str__(self) -> str:
        return f"{self.name}@v{self.version} [{self.compiled.mode}]"


class DetectorRegistry:
    """In-memory registry with JSON persist/reload.

    ``lint_policy`` governs publish-time static gating: ``"warn"``
    (default), ``"reject"`` or ``"off"``; :meth:`register` can override
    it per publish.
    """

    def __init__(self, *, lint_policy: str = "warn") -> None:
        if lint_policy not in _LINT_POLICIES:
            raise ValueError(
                f"lint_policy must be one of {_LINT_POLICIES}, "
                f"got {lint_policy!r}"
            )
        self._entries: dict[str, dict[int, RegisteredDetector]] = {}
        self.lint_policy = lint_policy
        #: explicit latest pointers: only names whose serving version
        #: diverges from the numerically newest one (i.e. rollbacks).
        self._latest: dict[str, int] = {}
        #: recorded deploy actions (rollbacks), newest last.
        self.actions: list[dict] = []

    # -- publishing ----------------------------------------------------
    def _publish_problems(self, name: str, detector: Detector) -> list[str]:
        """Static findings that should block (or flag) a publish:
        error-grade lint findings on the predicate, plus a proven
        equivalence/implication against the newest version of every
        *other* published name (new versions of the same name are the
        sanctioned way to supersede a detector)."""
        context = LintContext(predicates={name: detector.predicate})
        problems = [
            str(finding)
            for finding in Linter().run(context)
            if finding.severity >= Severity.ERROR
        ]
        for other in self.latest():
            if other.name == name:
                continue
            relation = compare_predicates(
                detector.predicate, other.detector.predicate
            )
            if relation.is_redundant:
                problems.append(
                    f"predicate is provably {relation.relation.replace('_', ' ')}"
                    f" {other.name}@v{other.version} ({relation.detail})"
                )
        return problems

    def register(
        self,
        detector: Detector,
        name: str | None = None,
        version: int | None = None,
        *,
        check: bool = True,
        lint_policy: str | None = None,
    ) -> RegisteredDetector:
        """Publish ``detector``; returns the registered entry.

        ``version`` defaults to one past the latest published version
        of ``name`` (1 for a new name); re-publishing an existing
        (name, version) is rejected -- published versions are
        immutable by contract.  ``lint_policy`` overrides the
        registry's static-gating policy for this publish.
        """
        name = name if name is not None else detector.name
        policy = lint_policy if lint_policy is not None else self.lint_policy
        if policy not in _LINT_POLICIES:
            raise ValueError(
                f"lint_policy must be one of {_LINT_POLICIES}, got {policy!r}"
            )
        if policy != "off":
            problems = self._publish_problems(name, detector)
            if problems:
                summary = "; ".join(problems)
                if policy == "reject":
                    raise RegistryError(
                        f"refusing to publish {name}: {summary}"
                    )
                warnings.warn(
                    f"publishing {name} despite findings: {summary}",
                    RegistryWarning,
                    stacklevel=2,
                )
        versions = self._entries.setdefault(name, {})
        if version is None:
            version = max(versions, default=0) + 1
        if version < 1:
            raise RegistryError(f"version must be >= 1, got {version}")
        if version in versions:
            raise RegistryError(
                f"{name}@v{version} is already published; versions are "
                "immutable (bump the version instead)"
            )
        entry = RegisteredDetector(
            name=name,
            version=version,
            detector=detector,
            compiled=compile_predicate(detector.predicate, check=check),
        )
        versions[version] = entry
        # A fresh publish supersedes any standing rollback: the newest
        # version is what `latest` serves again.
        self._latest.pop(name, None)
        return entry

    def publish(
        self,
        detector: Detector,
        name: str | None = None,
        version: int | None = None,
        *,
        check: bool = True,
        lint_policy: str | None = None,
    ) -> RegisteredDetector:
        """Alias of :meth:`register` (the paper-facing verb)."""
        return self.register(
            detector, name, version, check=check, lint_policy=lint_policy
        )

    def unregister(self, name: str, version: int | None = None) -> None:
        """Retire one version, or every version when ``version=None``."""
        versions = self._entries.get(name)
        if not versions:
            raise RegistryError(f"unknown detector {name!r}")
        if version is None:
            del self._entries[name]
            self._latest.pop(name, None)
            return
        if version not in versions:
            raise RegistryError(f"unknown version {name}@v{version}")
        del versions[version]
        if self._latest.get(name) == version:
            del self._latest[name]
        if not versions:
            del self._entries[name]
            self._latest.pop(name, None)

    def rollback(self, name: str) -> RegisteredDetector:
        """Re-point ``latest`` at the version before the one serving.

        The serving version stays published (versions are immutable);
        ``latest``/:meth:`lookup` simply resolve to its predecessor,
        and the action is recorded on :attr:`actions` so a registry
        snapshot carries its own deploy history.  Repeated rollbacks
        walk further back; :meth:`register`-ing a new version clears
        the pointer (a fresh publish is the roll-forward).  Raises
        :class:`RegistryError` when there is no prior version to
        return to.
        """
        versions = self._entries.get(name)
        if not versions:
            raise RegistryError(f"unknown detector {name!r}")
        current = self.latest_version(name)
        prior_candidates = [v for v in versions if v < current]
        if not prior_candidates:
            raise RegistryError(
                f"cannot roll back {name}@v{current}: no prior version"
            )
        prior = max(prior_candidates)
        self._latest[name] = prior
        self.actions.append(
            {"action": "rollback", "name": name,
             "from_version": current, "to_version": prior}
        )
        return self.lookup(name)

    # -- lookup --------------------------------------------------------
    def lookup(
        self, name: str, version: int | None = None
    ) -> RegisteredDetector:
        """Fetch a published detector; latest version by default."""
        versions = self._entries.get(name)
        if not versions:
            raise RegistryError(f"unknown detector {name!r}")
        if version is None:
            version = self._latest.get(name, max(versions))
        try:
            return versions[version]
        except KeyError:
            raise RegistryError(
                f"unknown version {name}@v{version}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)

    def versions(self, name: str) -> list[int]:
        versions = self._entries.get(name)
        if not versions:
            raise RegistryError(f"unknown detector {name!r}")
        return sorted(versions)

    def latest_version(self, name: str) -> int:
        """The version ``latest`` resolves to (rollback-aware)."""
        versions = self._entries.get(name)
        if not versions:
            raise RegistryError(f"unknown detector {name!r}")
        return self._latest.get(name, max(versions))

    def latest(self) -> list[RegisteredDetector]:
        """The newest version of every published name."""
        return [self.lookup(name) for name in self.names()]

    def __len__(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def __iter__(self):
        for name in self.names():
            for version in self.versions(name):
                yield self._entries[name][version]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    # -- persistence ---------------------------------------------------
    def to_dict(self) -> dict:
        payload = {
            "format": _FORMAT,
            "version": _FORMAT_VERSION,
            "detectors": [
                {
                    "name": entry.name,
                    "version": entry.version,
                    "detector": detector_to_dict(entry.detector),
                }
                for entry in self
            ],
        }
        # Optional keys, omitted when empty so pre-rollback artefacts
        # stay byte-for-byte what they were.
        if self._latest:
            payload["latest"] = dict(sorted(self._latest.items()))
        if self.actions:
            payload["actions"] = list(self.actions)
        return payload

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the registry as one JSON document."""
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def from_dict(cls, payload: dict, *, check: bool = True) -> "DetectorRegistry":
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            raise SerializationError(
                f"not a {_FORMAT} document: {payload!r:.80}"
            )
        if payload.get("version") != _FORMAT_VERSION:
            raise SerializationError(
                f"unsupported registry format version "
                f"{payload.get('version')!r}"
            )
        if "plan" in payload:
            # Deployment plans gated publishes; dropping the key would
            # silently lift a gate the document says is in force.
            raise SerializationError(
                "registry document carries a deployment plan; deployment "
                "plans were retired, so remove the 'plan' key to load it"
            )
        registry = cls()
        entries = payload.get("detectors")
        if not isinstance(entries, list):
            raise SerializationError("registry payload needs 'detectors'")
        for spec in entries:
            try:
                name = spec["name"]
                version = int(spec["version"])
                detector = detector_from_dict(spec["detector"])
            except (TypeError, KeyError, ValueError) as exc:
                raise SerializationError(
                    f"bad registry entry: {exc}"
                ) from exc
            # Gating off: a saved artefact must stay loadable even if
            # the lint rules have tightened since it was published.
            registry.register(detector, name=name, version=version,
                              check=check, lint_policy="off")
        latest = payload.get("latest") or {}
        if not isinstance(latest, dict):
            raise SerializationError("registry 'latest' must be a mapping")
        for name, version in latest.items():
            try:
                version = int(version)
            except (TypeError, ValueError) as exc:
                raise SerializationError(
                    f"bad latest pointer for {name!r}: {exc}"
                ) from exc
            if name not in registry._entries or (
                version not in registry._entries[name]
            ):
                raise SerializationError(
                    f"latest pointer {name}@v{version} is not published"
                )
            registry._latest[name] = version
        actions = payload.get("actions") or []
        if not isinstance(actions, list):
            raise SerializationError("registry 'actions' must be a list")
        registry.actions = [dict(action) for action in actions]
        return registry

    @classmethod
    def load(
        cls, path: str | pathlib.Path, *, check: bool = True
    ) -> "DetectorRegistry":
        """Rebuild (and recompile) a registry from ``save`` output."""
        text = pathlib.Path(path).read_text()
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"invalid JSON: {exc}") from exc
        return cls.from_dict(payload, check=check)
