"""Instrumentation model: probes, variable specs and harnesses.

PROPANE instruments a target so that, at chosen code locations, state
can be *sampled* (logged) or a fault *injected*.  In this reproduction
a target module is instrumented by calling::

    state = harness.probe("Gear", Location.ENTRY, state)

at its entry point and exit point, where ``state`` is a dict of the
module's non-composite variables (Section III-A's system model).  The
harness may record the state, mutate it (inject a bit flip), or both;
the module must continue executing with the returned dict.

The two concrete harnesses are:

* :class:`GoldenHarness` -- records samples, never mutates: produces a
  golden run;
* :class:`InjectionHarness` -- additionally flips one bit of one
  variable at the *n*-th occurrence of the injection probe (the
  occurrence index is the paper's "injection time": a control-loop
  iteration for FlightGear, a file index for 7-Zip/Mp3Gain).  To keep
  long-loop targets cheap it only records samples from the injection
  time onwards, up to a configurable budget per sampled probe -- the
  campaign uses the first sample at/after the injection.

Sampling is restricted to configured probes so that each dataset
corresponds to one (injection location, sampling location) pair as in
Table II.  A harness may sample several probes at once: one injected
run then yields the instance of every dataset that shares its
injection, as PROPANE logs several locations in one run.

The probe call is the hot path of every campaign (a FlightGear run
crosses it ~10,000 times), so occurrence bookkeeping uses plain
``(module, location)`` tuples internally (:class:`Location` hashes by
identity, in C), and an injection harness whose flip is spent and
whose sample budgets are full only counts.  A counting harness returns
the caller's own dict, not a copy, so every probe call must pass a
fresh mapping (a dict display) that the target does not hold on to:
the returned dict may be the one it passed.  A harness that can still
inject or sample returns a copy, so a flip never writes into the
caller's mapping.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Mapping

from repro.injection.bitflip import BitFlip, bit_width

__all__ = [
    "Location",
    "Probe",
    "VariableSpec",
    "StateSample",
    "Harness",
    "GoldenHarness",
    "InjectionHarness",
    "InstrumentationError",
]


class InstrumentationError(RuntimeError):
    """Raised when a target violates the instrumentation contract."""


class Location(enum.Enum):
    """Module code locations where probes can be placed."""

    ENTRY = "entry"
    EXIT = "exit"

    # Members are singletons, so identity hashing agrees with equality;
    # it is C-level, where Enum's own hash is a Python call per probe.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


@dataclasses.dataclass(frozen=True)
class Probe:
    """A (module, location) instrumentation point."""

    module: str
    location: Location

    @property
    def key(self) -> tuple[str, Location]:
        return (self.module, self.location)

    def __str__(self) -> str:
        return f"{self.module}@{self.location}"


@dataclasses.dataclass(frozen=True)
class VariableSpec:
    """Declared machine representation of one instrumented variable."""

    name: str
    kind: str = "float64"  # float64 | int64 | int32 | bool

    def __post_init__(self) -> None:
        bit_width(self.kind)  # validates the kind

    @property
    def bits(self) -> int:
        return bit_width(self.kind)


@dataclasses.dataclass(frozen=True)
class StateSample:
    """One sampled module state: the instances of the mining datasets."""

    probe: Probe
    occurrence: int
    variables: Mapping[str, float | int | bool]


class Harness:
    """Base harness: counts probe occurrences and records samples.

    ``sample_probe`` selects which probe is logged (one per dataset, as
    in Table II), or is a tuple of probes to log several; ``None``
    records every probe, which golden runs use so any sampling
    location can be read off later.
    """

    def __init__(self, sample_probe: Probe | tuple[Probe, ...] | None = None) -> None:
        self.sample_probe = sample_probe
        probes = (sample_probe,) if isinstance(sample_probe, Probe) else sample_probe
        #: Keys of the sampled probes (``None``: every probe).  A tuple:
        #: membership compares the one or two keys without hashing.
        self._sample_keys = None if probes is None else tuple(p.key for p in probes)
        self.samples: list[StateSample] = []
        self._occurrences: dict[tuple[str, Location], int] = {}
        #: Set once no later probe can change a state or take a sample:
        #: probes then only count (:class:`InjectionHarness`).
        self._counting = False

    def probe(
        self,
        module: str,
        location: Location,
        variables: Mapping[str, float | int | bool],
    ) -> dict[str, float | int | bool]:
        """Called by instrumented targets at module boundaries.

        Returns ``variables`` itself while counting, else a copy.
        """
        key = (module, location)
        occurrences = self._occurrences
        occurrence = occurrences.get(key, 0)
        occurrences[key] = occurrence + 1
        if self._counting:
            return variables
        state = self._on_probe(key, occurrence, dict(variables))
        if (
            self._sample_keys is None or key in self._sample_keys
        ) and self._should_sample(key, occurrence):
            self.samples.append(
                StateSample(Probe(module, location), occurrence, dict(state))
            )
        return state

    def _on_probe(
        self,
        key: tuple[str, Location],
        occurrence: int,
        state: dict[str, float | int | bool],
    ) -> dict[str, float | int | bool]:
        return state

    def _should_sample(self, key: tuple[str, Location], occurrence: int) -> bool:
        """Whether to record this occurrence of a sampled probe; a
        ``True`` answer is always followed by the recording."""
        return True

    def occurrences(self, probe: Probe) -> int:
        """Number of times ``probe`` has fired so far."""
        return self._occurrences.get(probe.key, 0)

    def occurrence_counts(self) -> dict[tuple[str, Location], int]:
        """A copy of every probe's occurrence count so far."""
        return dict(self._occurrences)

    def restore_occurrences(
        self, counts: Mapping[tuple[str, Location], int]
    ) -> None:
        """Continue counting from ``counts`` (a resumed run's prefix)."""
        self._occurrences = dict(counts)

    def samples_at(self, probe: Probe) -> list[StateSample]:
        return [s for s in self.samples if s.probe == probe]


class GoldenHarness(Harness):
    """Fault-free recording harness (records all probes by default)."""


class InjectionHarness(Harness):
    """Harness that flips one bit at one occurrence of one probe.

    Parameters
    ----------
    injection_probe:
        Where to inject (module + entry/exit).
    flip:
        Which variable/kind/bit to corrupt.
    injection_time:
        Zero-based occurrence index of ``injection_probe`` at which the
        flip is applied.
    sample_probe:
        Which probe's states to record (the dataset's sampling
        location), or a tuple of probes (one run feeding several
        datasets).
    sample_budget:
        How many samples to keep per sampled probe, starting at the
        injection time (the campaign consumes the first; a larger
        budget supports latency analyses).  ``None`` keeps every
        sample from the injection time onwards.

    Once the flip has fired and every sampled probe's budget is full,
    nothing a later probe does can reach a record or change a state,
    so probes only count their occurrences from then on.  Subclasses
    that override ``_on_probe`` keep seeing every probe.
    """

    def __init__(
        self,
        injection_probe: Probe,
        flip: BitFlip,
        injection_time: int,
        sample_probe: Probe | tuple[Probe, ...] | None = None,
        sample_budget: int | None = 4,
    ) -> None:
        super().__init__(sample_probe)
        self.injection_probe = injection_probe
        self._injection_key = injection_probe.key
        self.flip = flip
        self.injection_time = injection_time
        self.sample_budget = sample_budget
        self.injected = False
        self.injected_value: float | int | bool | None = None
        self.original_value: float | int | bool | None = None
        #: Samples recorded so far, per sampled probe key.
        self._taken: dict[tuple[str, Location], int] = {}
        #: Sampled probes whose budget is full.
        self._full = 0
        self._may_count = (
            type(self)._on_probe is InjectionHarness._on_probe
            and self._sample_keys is not None
            and sample_budget is not None
        )

    def holds_samples(self) -> bool:
        """Whether every sampled probe has recorded a sample (some
        probe has, when every probe is sampled)."""
        if self._sample_keys is None:
            return bool(self.samples)
        return len(self._taken) == len(self._sample_keys)

    def _settle(self) -> None:
        """Switch to counting once the flip is spent and the budgets
        are full."""
        self._counting = (
            self._may_count
            and self.injected
            and self._full == len(self._sample_keys)
        )

    def _on_probe(
        self,
        key: tuple[str, Location],
        occurrence: int,
        state: dict[str, float | int | bool],
    ) -> dict[str, float | int | bool]:
        if (
            not self.injected
            and occurrence == self.injection_time
            and key == self._injection_key
        ):
            if self.flip.variable not in state:
                raise InstrumentationError(
                    f"variable {self.flip.variable!r} not exposed at "
                    f"{key[0]}@{key[1]}"
                )
            self.original_value = state[self.flip.variable]
            self.injected_value = self.flip.apply(self.original_value)
            state[self.flip.variable] = self.injected_value
            self.injected = True
            self._settle()
        return state

    def _should_sample(self, key: tuple[str, Location], occurrence: int) -> bool:
        if occurrence < self.injection_time:
            return False
        taken = self._taken.get(key, 0)
        if self.sample_budget is not None and taken >= self.sample_budget:
            return False
        self._taken[key] = taken + 1
        if taken + 1 == self.sample_budget:
            self._full += 1
            self._settle()
        return True
