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

A fault-free run of a target that follows the resumable step protocol
(:mod:`repro.targets.base`) is stepped to its end once per target
fingerprint and test case, and memoised the same way
(:data:`STEPPING_CACHE`): the pickled state at every unit boundary,
and a :class:`GoldenTrail` of the probe occurrence counts and a
digest of that state at every boundary.  :func:`capture_checkpoints`
selects from it, for one campaign, the boundary where each injection
time's run would diverge from the fault-free run, so an injected run
resumes there instead of replaying the fault-free prefix, and it can
stop as soon as it *rejoins* the golden run
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
units.  The same argument stops a run that reaches a boundary an
earlier injected run of the same test case already checked: a
*suffix memo* (:meth:`Checkpoint.resume`) maps each checked
``(unit, counts, state digest)`` to how that earlier run ended --
its output, or that it crashed, and its final counts.  Checks fall
on an aligned schedule (multiples of a stride that doubles up to
:data:`CHECK_STRIDE_CAP`), so runs diverging at different units
still check the same units and can meet.  Campaigns that replay
(targets without the protocol, the ``_make_harness``/``_after_run``
hooks, the prune audit) never stop early.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
from collections import Counter

from repro.injection.instrument import (
    GoldenHarness,
    Harness,
    InjectionHarness,
    Probe,
    StateSample,
)
from repro.mining.cache import ContentCache
from repro.observability import names

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


def _fingerprint(target) -> str | None:
    """The target's configuration fingerprint, or ``None`` when it has
    none (duck-typed targets) or is not content-addressable."""
    fingerprinter = getattr(target, "fingerprint", None)
    return fingerprinter() if fingerprinter is not None else None


def golden_runs_for(target, test_cases) -> dict[int, GoldenRun]:
    """Golden runs for every test case, through the content cache.

    The cache key is the target's configuration fingerprint plus the
    test case number -- where the golden run came from (which campaign,
    which mode, which process first needed it) never matters, only what
    it is.  A hit returns the exact object a fresh capture would
    produce, so cached and uncached campaigns stay bit-identical.
    """
    fingerprint = _fingerprint(target)
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


#: The widest gap between two checks of a resumed run
#: (:meth:`Checkpoint.resume`): the stride doubles from 1 up to it.
CHECK_STRIDE_CAP = 16


class _MemoisedCrash(Exception):
    """Raised by a run that reached a suffix-memo key whose earlier run
    crashed: the rest of this run crashes too (:meth:`Checkpoint.resume`)."""


@dataclasses.dataclass(frozen=True)
class _Outcome:
    """How a run ended: its output (or that it crashed), its final
    probe counts and the unit boundary it ended at."""

    crashed: bool
    output: object
    counts: dict
    unit: int


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
        memo: dict | None = None,
        tally: Counter | None = None,
    ) -> object:
        """Run an injected run from here; stop once it rejoins the trail
        or reaches a boundary an earlier run already checked.

        ``state`` and ``harness`` are what :meth:`restore` prepared.
        Returns the run's output; a run that stops early counts itself
        in ``tally`` (``rejoined`` or ``converged``) with the units it
        skipped (``units_skipped``).

        Checking starts at the first boundary where the flip has fired
        and the harness holds a sample of every probe it samples (a
        dual run feeds two records).  The next check is the next
        multiple of a stride that doubles from 1 up to
        :data:`CHECK_STRIDE_CAP`, so a check costs one state pickle
        every few units however long the run, and every run checks
        the same units once its stride is capped.  A check compares
        the run's counts and state digest with the trail; on a match
        the rest of the run *is* the golden run -- the step protocol
        makes it a function of state and counts alone, and the
        harness, its one flip spent and its samples taken, returns
        every later probe state unchanged -- so the output is
        ``golden_output`` and the harness takes the trail's final
        counts, exactly what running to the end would leave.

        ``memo`` (one test case's suffix memo, owned by the caller) is
        the same argument across runs: it maps ``(unit, counts, state
        digest)`` to how an earlier run that checked that boundary
        ended.  A check that finds its key restores the stored final
        counts and returns the stored output -- or raises
        :class:`_MemoisedCrash` when that run crashed -- without
        executing the rest; when the run ends, every key it checked
        takes its outcome, whether it rejoined, finished, crashed or
        hit the memo.  A hit is exactly what running would return.
        """
        trail = self.trail
        unit = self.unit
        check = None
        stride = 1
        checked: list[tuple] = []
        stop = None
        try:
            while True:
                if check is None and harness.injected and harness.holds_samples():
                    check = unit
                if unit == check:
                    counts = harness.occurrence_counts()
                    # Counts first: comparing them is cheap, pickling
                    # is not -- and without a memo only a count match
                    # needs the digest.
                    on_trail = unit < len(trail.counts) and counts == trail.counts[unit]
                    if on_trail or memo is not None:
                        digest = _digest(pickle.dumps(state))
                    if on_trail and digest == trail.digests[unit]:
                        stop = names.COUNTER_REJOINED
                        outcome = _Outcome(
                            False, golden_output, trail.counts[-1], len(trail.counts) - 1
                        )
                        break
                    if memo is not None:
                        key = (unit, frozenset(counts.items()), digest)
                        outcome = memo.get(key)
                        if outcome is not None:
                            stop = names.COUNTER_CONVERGED
                            break
                        checked.append(key)
                    stride = min(2 * stride, CHECK_STRIDE_CAP)
                    check = (unit // stride + 1) * stride
                if not target.advance(state, harness):
                    outcome = _Outcome(
                        False, target.finish(state), harness.occurrence_counts(), unit
                    )
                    break
                unit += 1
        except Exception:
            if memo is not None:
                crash = _Outcome(True, None, harness.occurrence_counts(), unit)
                memo.update(dict.fromkeys(checked, crash))
            raise
        if memo is not None:
            memo.update(dict.fromkeys(checked, outcome))
        harness.restore_occurrences(outcome.counts)
        if stop is not None and tally is not None:
            tally[stop] += 1
            tally[names.COUNTER_UNITS_SKIPPED] += outcome.unit - unit
        if outcome.crashed:
            raise _MemoisedCrash(f"converged at unit {unit} on a run that crashed")
        return outcome.output


class _CountingHarness(Harness):
    """Counts probe occurrences and records nothing: it is counting
    from the first probe, on the harness's no-copy fast path."""

    def __init__(self) -> None:
        super().__init__()
        self._counting = True


#: Process-local memo of fault-free steppings (:func:`_stepping`),
#: keyed like :data:`GOLDEN_CACHE` by ``(target.fingerprint(),
#: test_case)`` and governed by the same registry.
STEPPING_CACHE = ContentCache(maxsize=64, name="golden.stepping")


def _stepping(target, test_case: int) -> tuple[GoldenTrail, tuple[bytes, ...]]:
    """The fault-free run of ``test_case`` stepped to its end: its
    :class:`GoldenTrail` and the pickled state at every boundary.

    Pure in (target, test case), so it is memoised in
    :data:`STEPPING_CACHE` under the target's fingerprint, and every
    campaign on the target steps each test case once; a target that is
    not fingerprintable is stepped on every call.
    """
    fingerprint = _fingerprint(target)
    key = None if fingerprint is None else (fingerprint, test_case)
    if key is not None:
        cached = STEPPING_CACHE.get(key)
        if cached is not None:
            return cached
    states: list[bytes] = []
    digests: list[bytes] = []
    boundary_counts: list[dict] = []
    harness = _CountingHarness()
    state = target.start(test_case)
    while True:
        pickled = pickle.dumps(state)
        states.append(pickled)
        digests.append(_digest(pickled))
        boundary_counts.append(harness.occurrence_counts())
        if not target.advance(state, harness):
            break
    stepped = (GoldenTrail(tuple(digests), tuple(boundary_counts)), tuple(states))
    if key is not None:
        STEPPING_CACHE.put(key, stepped)
    return stepped


def capture_checkpoints(
    target,
    test_case: int,
    injection_probe: Probe,
    sample_probes: tuple[Probe, ...],
    injection_times,
) -> dict[int, Checkpoint]:
    """Resume points of ``test_case`` for each injection time.

    Selects them from the fault-free run stepped to its end
    (``target`` must be :meth:`~repro.targets.base.TargetSystem.resumable`)
    with its :class:`GoldenTrail` and the state at every boundary --
    stepped once per target fingerprint and test case, however many
    campaigns ask (:data:`STEPPING_CACHE`).  The checkpoint of time
    ``t`` is the last unit boundary where ``injection_probe`` has fired
    exactly ``t`` times -- the injection fires at the next occurrence,
    so everything before it is the golden prefix -- and where no probe
    of ``sample_probes`` has fired more than ``t`` times (an injected
    run samples from occurrence ``t`` on, so an earlier sample would
    be lost).  A time past the run's last occurrence resumes from the
    final state.  A time with no such boundary gets no checkpoint, and
    its runs replay in full.  Every checkpoint of the test case shares
    the one trail, which its resumed runs stop against
    (:meth:`Checkpoint.resume`).
    """
    trail, states = _stepping(target, test_case)
    times = set(injection_times)
    injection_key = injection_probe.key
    sample_keys = [probe.key for probe in sample_probes]
    snapshots: dict[int, int] = {}
    for unit, counts in enumerate(trail.counts):
        count = counts.get(injection_key, 0)
        sampled = max(counts.get(key, 0) for key in sample_keys)
        if count in times and sampled <= count:
            snapshots[count] = unit
    for time in sorted(times):
        if time > count and sampled <= time:
            snapshots[time] = unit
    return {
        time: Checkpoint(states[unit], unit, trail)
        for time, unit in snapshots.items()
    }
