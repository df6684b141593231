"""Golden run capture.

PROPANE compares every injected run against a *golden run*: "a
reproducible fault-free run of the system for a given test case,
capturing information about the state of the system during execution"
(Section VI-E).  :class:`GoldenRun` stores both the observable output
(for failure specifications of the golden-diff kind) and the full
sequence of probe samples (so sampling locations can be chosen after
the fact, and so deviation-based analyses remain possible).

Golden capture is pure in (target, test case): targets are
deterministic per test case, so two captures of the same pair are
bit-identical.  :func:`golden_runs_for` therefore memoises captures in
a content-addressed :class:`~repro.mining.cache.ContentCache` keyed by
the target's configuration fingerprint -- a campaign re-run (exhaustive
after sampled, pruned after exhaustive, a benchmark's before/after
pair) reuses the fault-free executions instead of re-deriving them.

:func:`capture_checkpoints` steps a fault-free run of a target that
follows the resumable step protocol (:mod:`repro.targets.base`) to
its end.  It snapshots the state at the unit boundary where each
injection time's run would diverge from it, so an injected run
resumes there instead of replaying the fault-free prefix; and it
keeps a :class:`GoldenTrail`, the probe occurrence counts and a
digest of the pickled state at every boundary, so the injected run
can stop as soon as it *rejoins* the golden run
(:meth:`Checkpoint.resume`).

Stopping is sound because, under the step protocol, the rest of a run
is determined by its state and probe counts alone: once the harness
has spent its one flip it returns every probe state unchanged, and
once it holds the record's sample (the first at or after the
injection time) of every probe it samples, nothing later reaches a
record.  A run whose state
and counts equal the golden run's at the same boundary therefore
finishes exactly as the golden run does -- same output, same final
counts -- and the campaign takes those instead of executing the
units.  Campaigns that replay (targets without the protocol, the
``_make_harness``/``_after_run`` hooks, the prune audit) never stop
early.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

from repro.injection.instrument import (
    GoldenHarness,
    Harness,
    InjectionHarness,
    Probe,
    StateSample,
)
from repro.mining.cache import ContentCache

__all__ = [
    "GoldenRun",
    "Checkpoint",
    "GoldenTrail",
    "capture_golden_run",
    "capture_checkpoints",
    "golden_runs_for",
    "GOLDEN_CACHE",
]


@dataclasses.dataclass
class GoldenRun:
    """Fault-free reference execution of one test case."""

    test_case: int
    output: object
    samples: list[StateSample]

    def __post_init__(self) -> None:
        self._by_probe: dict[tuple, list[StateSample]] = {}
        self._by_occurrence: dict[tuple, dict[int, StateSample]] = {}

    def __getstate__(self) -> dict:
        # Probe indexes are derived data; rebuild them lazily on the
        # other side of a pickle instead of shipping them to workers.
        state = dict(self.__dict__)
        state.pop("_by_probe", None)
        state.pop("_by_occurrence", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._by_probe = {}
        self._by_occurrence = {}

    def samples_at(self, probe: Probe) -> list[StateSample]:
        """Samples of one probe, indexed once per (run, probe).

        A FlightGear golden run crosses its probes ~10,000 times and a
        shard consults it once per injected run, so the linear scan is
        cached -- the batch golden-state reuse of the shard data plane.
        """
        cached = self._by_probe.get(probe.key)
        if cached is None:
            cached = [s for s in self.samples if s.probe == probe]
            self._by_probe[probe.key] = cached
        return cached

    def sample_at(self, probe: Probe, occurrence: int) -> StateSample | None:
        """The sample of ``probe`` at one occurrence, O(1) after warmup."""
        index = self._by_occurrence.get(probe.key)
        if index is None:
            index = {s.occurrence: s for s in self.samples_at(probe)}
            self._by_occurrence[probe.key] = index
        return index.get(occurrence)


def capture_golden_run(target, test_case: int) -> GoldenRun:
    """Execute ``test_case`` on ``target`` fault-free and record it.

    ``target`` follows the :class:`repro.targets.base.TargetSystem`
    protocol: ``run(test_case, harness)`` returns the observable output
    and drives the harness probes as a side effect.
    """
    harness = GoldenHarness()
    output = target.run(test_case, harness)
    return GoldenRun(test_case, output, harness.samples)


#: Process-local memo of golden captures, keyed by
#: ``(target.fingerprint(), test_case)``.  Registered with the global
#: cache registry, so :func:`repro.mining.cache.clear_reuse_caches`
#: and ``reuse_caches_disabled()`` govern it like every reuse cache.
GOLDEN_CACHE = ContentCache(maxsize=64, name="golden")


def golden_runs_for(target, test_cases) -> dict[int, GoldenRun]:
    """Golden runs for every test case, through the content cache.

    The cache key is the target's configuration fingerprint plus the
    test case number -- where the golden run came from (which campaign,
    which mode, which process first needed it) never matters, only what
    it is.  A hit returns the exact object a fresh capture would
    produce, so cached and uncached campaigns stay bit-identical.
    """
    fingerprinter = getattr(target, "fingerprint", None)
    fingerprint = fingerprinter() if fingerprinter is not None else None
    if fingerprint is None:
        # Duck-typed target without the protocol, or one whose state
        # is not content-addressable: capture directly, never cache.
        return {tc: capture_golden_run(target, tc) for tc in test_cases}
    runs: dict[int, GoldenRun] = {}
    for tc in test_cases:
        key = (fingerprint, tc)
        golden = GOLDEN_CACHE.get(key)
        if golden is None:
            golden = capture_golden_run(target, tc)
            GOLDEN_CACHE.put(key, golden)
        runs[tc] = golden
    return runs


@dataclasses.dataclass(frozen=True)
class GoldenTrail:
    """A fault-free run's path: its state and counts at every boundary.

    After ``i`` units, from the start (``0``) to the final state
    (``-1``), ``digests[i]`` is the digest of the pickled state
    (:func:`_digest`) and ``counts[i]`` the probe occurrence counts.
    The digests are 128-bit BLAKE2b, the trust model of the content
    addresses the campaign store already relies on: equal digests are
    taken to mean equal states.  They keep the trail small enough to
    ship with every shard.
    """

    digests: tuple[bytes, ...]
    counts: tuple[dict, ...]


def _digest(state: bytes) -> bytes:
    return hashlib.blake2b(state, digest_size=16).digest()


@dataclasses.dataclass(frozen=True)
class Checkpoint:
    """A fault-free run's state at one unit boundary, ready to resume.

    ``state`` is the pickled run state (so every resume starts from a
    fresh copy); ``unit`` the boundary's index in ``trail``, the
    golden trail of the same test case.
    """

    state: bytes
    unit: int
    trail: GoldenTrail

    @property
    def occurrences(self) -> dict:
        """The probe occurrence counts at this boundary, which the
        resumed run's harness continues from."""
        return self.trail.counts[self.unit]

    def restore(self, harness: Harness) -> object:
        """Seed ``harness``'s occurrence counts; return a fresh state."""
        harness.restore_occurrences(self.occurrences)
        return pickle.loads(self.state)

    def resume(
        self,
        target,
        state: object,
        harness: InjectionHarness,
        golden_output: object,
    ) -> tuple[object, int | None]:
        """Run an injected run from here; stop once it rejoins the trail.

        ``state`` and ``harness`` are what :meth:`restore` prepared.
        Returns the run's output and, when it rejoined, the number of
        golden units it skipped (``None`` when it ran to the end).
        Checking starts at the first boundary where the flip has fired
        and the harness holds a sample of every probe it samples (a
        dual run feeds two records), and compares the run's counts
        and state digest with the trail 0, 1, 3, 7, ... units later:
        the stride doubles, so checks cost at most a
        logarithmic number of state pickles however long the run.  On
        a match the rest of the run *is* the golden run -- the step
        protocol makes it a function of state and counts alone, and
        the harness, its one flip spent and its samples taken, returns
        every later probe state unchanged -- so the output is
        ``golden_output`` and the harness takes the trail's final
        counts, exactly what running to the end would leave.
        """
        trail = self.trail
        unit = self.unit
        check = None
        stride = 1
        while True:
            if check is None and harness.injected and harness.holds_samples():
                check = unit
            if unit == check:
                # Counts first: comparing them is cheap, pickling is not.
                if (
                    unit < len(trail.counts)
                    and harness.occurrence_counts() == trail.counts[unit]
                    and _digest(pickle.dumps(state)) == trail.digests[unit]
                ):
                    harness.restore_occurrences(trail.counts[-1])
                    return golden_output, len(trail.counts) - 1 - unit
                check += stride
                stride *= 2
            if not target.advance(state, harness):
                return target.finish(state), None
            unit += 1


class _CountingHarness(Harness):
    """Counts probe occurrences and records nothing."""

    def _should_sample(self, key, occurrence: int) -> bool:
        return False


def capture_checkpoints(
    target,
    test_case: int,
    injection_probe: Probe,
    sample_probes: tuple[Probe, ...],
    injection_times,
) -> dict[int, Checkpoint]:
    """Resume points of ``test_case`` for each injection time.

    Steps the fault-free run once, to its end (``target`` must be
    :meth:`~repro.targets.base.TargetSystem.resumable`), recording
    its :class:`GoldenTrail`.  The checkpoint of time ``t`` is the
    last unit boundary where ``injection_probe`` has fired exactly
    ``t`` times -- the injection fires at the next occurrence, so
    everything before it is the golden prefix -- and where no probe of
    ``sample_probes`` has fired more than ``t`` times (an injected run
    samples from occurrence ``t`` on, so an earlier sample would be
    lost).  A time past the run's last occurrence resumes from the
    final state.  A time with no such boundary gets no checkpoint, and
    its runs replay in full.  Every checkpoint of the test case shares
    the one trail, which its resumed runs stop against
    (:meth:`Checkpoint.resume`).
    """
    times = set(injection_times)
    snapshots: dict[int, tuple[bytes, int]] = {}
    digests: list[bytes] = []
    boundary_counts: list[dict] = []
    harness = _CountingHarness()
    state = target.start(test_case)
    while True:
        pickled = pickle.dumps(state)
        counts = harness.occurrence_counts()
        digests.append(_digest(pickled))
        boundary_counts.append(counts)
        count = harness.occurrences(injection_probe)
        sampled = max(harness.occurrences(probe) for probe in sample_probes)
        if count in times and sampled <= count:
            snapshots[count] = (pickled, len(digests) - 1)
        if not target.advance(state, harness):
            break
    for time in sorted(times):
        if time > count and sampled <= time:
            snapshots[time] = (pickled, len(digests) - 1)
    trail = GoldenTrail(tuple(digests), tuple(boundary_counts))
    return {
        time: Checkpoint(pickled, unit, trail)
        for time, (pickled, unit) in snapshots.items()
    }
