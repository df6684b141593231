"""Golden runs, golden trails and checkpoints.

PROPANE compares every injected run against a *golden run*: "a
reproducible fault-free run of the system for a given test case,
capturing information about the state of the system during execution"
(Section VI-E).  :class:`GoldenRun` stores both the observable output
(for failure specifications of the golden-diff kind) and the full
sequence of probe samples (so sampling locations can be chosen after
the fact, and so deviation-based analyses remain possible).

One fault-free execution per test case is the only source of
everything a campaign takes from the fault-free run
(:func:`fault_free_run`).  A target that follows the resumable step
protocol (:mod:`repro.targets.base`) is stepped to its end under a
:class:`GoldenHarness`, and the one stepping yields its
:class:`GoldenRun`, a :class:`GoldenTrail` of the probe occurrence
counts and a digest of the state at every unit boundary, and the
pickled state at every boundary.  A target without the protocol is
captured by :func:`capture_golden_run` and has no trail.  Fault-free
runs are pure in (target, test case): targets are deterministic per
test case, so two executions of the same pair are bit-identical, and
:data:`GOLDEN_CACHE` memoises them under the target's configuration
fingerprint -- a campaign re-run (exhaustive after sampled, pruned
after exhaustive, a benchmark's before/after pair) reuses the
fault-free executions instead of re-deriving them.

:meth:`FaultFreeRun.checkpoints` selects, for one campaign, the
boundary where each injection time's run would diverge from the
fault-free run, so an injected run resumes there instead of replaying
the fault-free prefix, and it can stop as soon as it *rejoins* the
golden run (:meth:`Checkpoint.resume`).

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
    "FaultFreeRun",
    "capture_golden_run",
    "fault_free_run",
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


@dataclasses.dataclass(frozen=True)
class GoldenTrail:
    """A fault-free run's path: its state and counts at every boundary.

    After ``i`` units, from the start (``0``) to the final state
    (``-1``), ``digests[i]`` is the digest of the pickled state
    (:func:`_digest`) and ``counts[i]`` the probe occurrence counts.
    The digests are 128-bit BLAKE2b, the trust model of the content
    addresses the campaign store already relies on: equal digests are
    taken to mean equal states.
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
        Returns the run's output.  Every run counts in ``tally`` the
        units it executed (``units``), its state digests (``checks``)
        and their pickled bytes (``check_bytes``), once when it ends;
        a run that stops early also counts itself (``rejoined`` or
        ``converged``) with the units it skipped (``units_skipped``).

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
        checks = check_bytes = 0
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
                        pickled = pickle.dumps(state)
                        digest = _digest(pickled)
                        checks += 1
                        check_bytes += len(pickled)
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
        finally:
            if tally is not None:
                tally[names.COUNTER_UNITS] += unit - self.unit
                tally[names.COUNTER_CHECKS] += checks
                tally[names.COUNTER_CHECK_BYTES] += check_bytes
        if memo is not None:
            memo.update(dict.fromkeys(checked, outcome))
        harness.restore_occurrences(outcome.counts)
        if stop is not None and tally is not None:
            tally[stop] += 1
            tally[names.COUNTER_UNITS_SKIPPED] += outcome.unit - unit
        if outcome.crashed:
            raise _MemoisedCrash(f"converged at unit {unit} on a run that crashed")
        return outcome.output


@dataclasses.dataclass(frozen=True)
class FaultFreeRun:
    """One fault-free execution of a test case: its golden run, and for
    a target with the step protocol its trail and the pickled state at
    every unit boundary (``trail`` is ``None`` and ``states`` empty
    for a target without it)."""

    golden: GoldenRun
    trail: GoldenTrail | None = None
    states: tuple[bytes, ...] = ()

    def checkpoints(
        self,
        injection_probe: Probe,
        sample_probes: tuple[Probe, ...],
        injection_times,
    ) -> dict[int, Checkpoint]:
        """Resume points of this test case for each injection time.

        The checkpoint of time ``t`` is the last unit boundary where
        ``injection_probe`` has fired exactly ``t`` times -- the
        injection fires at the next occurrence, so everything before
        it is the golden prefix -- and where no probe of
        ``sample_probes`` has fired more than ``t`` times (an injected
        run samples from occurrence ``t`` on, so an earlier sample
        would be lost).  A time past the run's last occurrence resumes
        from the final state.  A time with no such boundary gets no
        checkpoint, and its runs replay in full; so does every time of
        a run without a trail.  Every checkpoint of the test case
        shares the one trail, which its resumed runs stop against
        (:meth:`Checkpoint.resume`).
        """
        trail = self.trail
        if trail is None:
            return {}
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
            time: Checkpoint(self.states[unit], unit, trail)
            for time, unit in snapshots.items()
        }


#: Process-local memo of fault-free runs (:func:`fault_free_run`),
#: keyed by ``(target.fingerprint(), test_case)``.  Registered with the
#: global cache registry, so :func:`repro.mining.cache.clear_reuse_caches`
#: and ``reuse_caches_disabled()`` govern it like every reuse cache.
GOLDEN_CACHE = ContentCache(maxsize=64, name="golden")


def _fingerprint(target) -> str | None:
    """The target's configuration fingerprint, or ``None`` when it has
    none (duck-typed targets) or is not content-addressable."""
    fingerprinter = getattr(target, "fingerprint", None)
    return fingerprinter() if fingerprinter is not None else None


def _step(target, test_case: int) -> FaultFreeRun:
    """Step the fault-free run of ``test_case`` to its end under a
    :class:`GoldenHarness`, pickling the state at every boundary."""
    harness = GoldenHarness()
    states: list[bytes] = []
    digests: list[bytes] = []
    boundary_counts: list[dict] = []
    state = target.start(test_case)
    while True:
        pickled = pickle.dumps(state)
        states.append(pickled)
        digests.append(_digest(pickled))
        boundary_counts.append(harness.occurrence_counts())
        if not target.advance(state, harness):
            break
    golden = GoldenRun(test_case, target.finish(state), harness.samples)
    trail = GoldenTrail(tuple(digests), tuple(boundary_counts))
    return FaultFreeRun(golden, trail, tuple(states))


def fault_free_run(target, test_case: int) -> FaultFreeRun:
    """The fault-free execution of ``test_case``, through the cache.

    Stepped when ``target`` is
    :meth:`~repro.targets.base.TargetSystem.resumable`, else captured
    by :func:`capture_golden_run`.  The cache key is the target's
    configuration fingerprint plus the test case number -- where the
    run came from (which campaign, which mode, which process first
    needed it) never matters, only what it is.  A hit returns the
    exact object a fresh execution would produce, so cached and
    uncached campaigns stay bit-identical.  A target without a
    fingerprint (duck-typed, or not content-addressable) executes on
    every call.
    """
    fingerprint = _fingerprint(target)
    key = None if fingerprint is None else (fingerprint, test_case)
    if key is not None:
        cached = GOLDEN_CACHE.get(key)
        if cached is not None:
            return cached
    resumable = getattr(target, "resumable", None)
    if resumable is not None and resumable():
        run = _step(target, test_case)
    else:
        run = FaultFreeRun(capture_golden_run(target, test_case))
    if key is not None:
        GOLDEN_CACHE.put(key, run)
    return run


def golden_runs_for(target, test_cases) -> dict[int, GoldenRun]:
    """Golden runs for every test case (:func:`fault_free_run`)."""
    return {tc: fault_free_run(target, tc).golden for tc in test_cases}
