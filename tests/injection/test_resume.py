"""Resumed injected runs are bit-identical to full replays.

Injected runs of a target that follows the step protocol resume from
a golden-prefix checkpoint (:func:`repro.injection.golden.
capture_checkpoints`) instead of replaying their test case from the
start, and stop as soon as their state and probe counts rejoin the
golden trail (:meth:`repro.injection.golden.Checkpoint.resume`).
These tests hold the resuming data plane to the full-replay oracle
(``tests/injection/_replay.py``): on the 18 Table II datasets at
smoke scale, and as a Hypothesis property over a toy stepping target
that covers injection at the first and last occurrence and past the
end, crashes after the injection, sampling at the other location,
probes that skip their exit, units that overwrite the corrupted
variable (so runs rejoin or stay diverged), a masked flip that still
re-enters the module (equal state, different counts), a two-phase
run whose injected module only fires after another phase, and a
saturating unit that makes different flips converge with one another
without rejoining the golden run (the suffix memo of
:meth:`~repro.injection.golden.Checkpoint.resume`).  The checkpoint
positions and the units each resumed run executes are pinned against
an independent stepping of the runs, so a checkpoint one boundary
early or late, or a check at the wrong boundary, fails even where its
records would still agree.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.experiments.scale import get_scale
from repro.injection.bitflip import BitFlip
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.golden import CHECK_STRIDE_CAP, golden_runs_for
from repro.injection.instrument import Harness, InjectionHarness, Location, Probe, VariableSpec
from repro.mining.cache import clear_reuse_caches, reuse_caches_disabled
from repro.observability import names
from repro.orchestration import campaigns
from repro.orchestration.campaigns import run_campaign
from repro.orchestration.pool import ProcessPool, SerialPool
from repro.targets.base import TargetSystem

from tests.injection._replay import replay_records


def _dicts(records) -> list[dict]:
    return [record.to_dict() for record in records]


# ----------------------------------------------------------------------
# A toy stepping target
# ----------------------------------------------------------------------
class StepTarget(TargetSystem):
    """Two-phase accumulator following the step protocol.

    ``pre_units`` units of module ``Pre`` run first (the first phase
    of a 7-Zip-like run), then ``units`` units of ``Acc``.  Every
    ``skip_exit``-th ``Acc`` unit, the first included, returns before
    its exit probe, so entry and exit counts drift apart.  An
    accumulator whose magnitude exceeds ``crash_above`` raises: a
    high-bit flip crashes the run after the injection.  Every
    ``reset_every``-th ``Acc`` unit overwrites the accumulator with a
    value that depends only on the test case and the step, masking an
    earlier flip of it.  With ``clamp``, every ``Acc`` unit saturates
    an accumulator above ``clamp`` to ``clamp`` (after the crash
    check): the golden runs stay below it, so flips that push the
    accumulator over it converge with one another, never with the
    golden run.  ``scratch`` is read by nothing, so a flip of
    it is masked at once -- but with ``reenter`` a non-zero scratch at
    the entry probe makes the unit enter ``Acc`` again, once or twice
    (scratch mod 3), so the state rejoins the golden run while the
    probe counts do not, and flips of different scratch bits reach
    equal states with different counts.
    ``UNITS`` counts every unit executed, across instances, so tests
    can see how much of a run was executed.
    """

    name = "ST"
    UNITS = 0

    def __init__(
        self,
        pre_units=0,
        units=4,
        skip_exit=0,
        crash_above=1 << 40,
        reset_every=0,
        reenter=False,
        clamp=0,
    ):
        self.pre_units = pre_units
        self.units = units
        self.skip_exit = skip_exit
        self.crash_above = crash_above
        self.reset_every = reset_every
        self.reenter = reenter
        self.clamp = clamp

    @property
    def modules(self):
        return ("Pre", "Acc")

    def variables_of(self, module, location=None):
        self.check_module(module)
        if module == "Pre":
            return (VariableSpec("n", "int32"),)
        entry = (VariableSpec("acc", "int32"), VariableSpec("scratch", "int32"))
        if location is Location.ENTRY:
            return entry
        return entry + (VariableSpec("total", "int32"),)

    def start(self, test_case):
        return {"pre": 0, "step": 0, "acc": test_case, "base": test_case, "seen": []}

    def advance(self, state, harness: Harness) -> bool:
        if state["pre"] < self.pre_units:
            probed = harness.probe("Pre", Location.ENTRY, {"n": state["pre"]})
            state["seen"].append(int(probed["n"]))
            harness.probe("Pre", Location.EXIT, {"n": state["pre"]})
            state["pre"] += 1
        else:
            step = state["step"]
            if step >= self.units:
                return False
            probed = harness.probe(
                "Acc", Location.ENTRY, {"acc": state["acc"], "scratch": 0}
            )
            for _ in range(probed["scratch"] % 3 if self.reenter else 0):
                harness.probe(
                    "Acc", Location.ENTRY, {"acc": state["acc"], "scratch": 0}
                )
            acc = int(probed["acc"]) + step
            if abs(acc) > self.crash_above:
                raise OverflowError(f"accumulator {acc} out of range")
            if self.clamp and acc > self.clamp:
                acc = self.clamp
            if self.reset_every and step % self.reset_every == self.reset_every - 1:
                acc = state["base"] + step
            state["step"] = step + 1
            if self.skip_exit and step % self.skip_exit == 0:
                state["acc"] = acc
            else:
                probed = harness.probe(
                    "Acc",
                    Location.EXIT,
                    {"acc": acc, "scratch": step, "total": acc},
                )
                state["acc"] = int(probed["total"])
        type(self).UNITS += 1
        return True

    def finish(self, state):
        return (state["acc"], tuple(state["seen"]))

    def is_failure(self, golden_output, run_output):
        return golden_output != run_output


class ReplayOnlyTarget(StepTarget):
    """The same run through an overridden ``run``: always replays."""

    def run(self, test_case, harness):
        state = self.start(test_case)
        while self.advance(state, harness):
            pass
        return self.finish(state)


def _boundaries(target, test_case):
    """``(pickled state, occurrence counts)`` at every unit boundary of
    the fault-free run -- an independent stepping of the protocol."""
    harness = Harness(sample_probe=Probe("none", Location.ENTRY))
    state = target.start(test_case)
    seen = [(pickle.dumps(state), harness.occurrence_counts())]
    while target.advance(state, harness):
        seen.append((pickle.dumps(state), harness.occurrence_counts()))
    return seen


def _expected_checkpoint(boundaries, config, time):
    """The boundary a run injected at ``time`` must resume from, or
    ``None`` when it must replay."""
    inject = config.injection_probe.key
    sample = config.sample_probe.key
    chosen = None
    for state, counts in boundaries:
        if counts.get(inject, 0) == time and counts.get(sample, 0) <= time:
            chosen = (state, counts)
    _, final = boundaries[-1]
    if final.get(inject, 0) < time and final.get(sample, 0) <= time:
        chosen = boundaries[-1]
    return chosen


LOCATIONS = [
    (Location.ENTRY, Location.ENTRY),
    (Location.ENTRY, Location.EXIT),
    (Location.EXIT, Location.EXIT),
    (Location.EXIT, Location.ENTRY),
]


def _config(times, locations):
    inject, sample = locations
    return CampaignConfig(
        module="Acc",
        injection_location=inject,
        sample_location=sample,
        test_cases=(0, 1, 2),
        injection_times=times,
        bits=(0, 3, 8, 31),
    )


@st.composite
def step_campaigns(draw, crashes=True):
    units = draw(st.integers(1, 9))
    target = StepTarget(
        pre_units=draw(st.integers(0, 3)),
        units=units,
        skip_exit=draw(st.sampled_from((0, 2, 3))),
        crash_above=draw(st.sampled_from((1 << 40, 64) if crashes else (1 << 40,))),
        reset_every=draw(st.sampled_from((0, 1, 2, 3))),
        reenter=draw(st.booleans()),
        # Golden accumulators stay below 50 (at most 2 + 0 + ... + 8).
        clamp=draw(st.sampled_from((0, 50))),
    )
    # Always the first occurrence, the last and one past the end.
    drawn = draw(st.lists(st.integers(0, units + 2), max_size=3))
    times = tuple(sorted({0, units - 1, units + 1, *drawn}))
    return Campaign(target, _config(times, draw(st.sampled_from(LOCATIONS))))


class TestStepProperty:
    @given(step_campaigns())
    @settings(max_examples=60, deadline=None)
    def test_resume_matches_replay(self, campaign):
        expected = _dicts(replay_records(campaign))
        assert _dicts(campaign.run().records) == expected
        assert _dicts(run_campaign(campaign).records) == expected

    @given(step_campaigns())
    @settings(max_examples=60, deadline=None)
    def test_checkpoints_sit_at_the_last_golden_boundary(self, campaign):
        config = campaign.config
        checkpoints = campaign._capture_checkpoints()
        for tc in config.test_cases:
            boundaries = _boundaries(campaign.target, tc)
            for time in config.injection_times:
                expected = _expected_checkpoint(boundaries, config, time)
                got = checkpoints.get((time, tc))
                if expected is None:
                    assert got is None
                else:
                    assert got is not None
                    assert (got.state, got.occurrences) == expected

    @given(step_campaigns(crashes=False))
    @settings(max_examples=40, deadline=None)
    def test_resumed_runs_skip_the_prefix(self, campaign):
        config = campaign.config
        target = campaign.target
        golden_runs = golden_runs_for(target, config.test_cases)
        checkpoints = campaign._capture_checkpoints()
        expected_units = 0
        expected = Counter()
        pairs = [
            BitFlip(spec.name, spec.kind, bit)
            for spec in campaign._targeted_specs()
            for bit in campaign._bits_for(spec)
        ]
        boundaries = {tc: _boundaries(target, tc) for tc in config.test_cases}
        index = {
            tc: {state: i for i, (state, _) in enumerate(seen)}
            for tc, seen in boundaries.items()
        }
        # The model's memo: test case -> checked key -> end boundary.
        model = {tc: {} for tc in config.test_cases}
        for flip in pairs:  # canonical order: the memo depends on it
            for time in config.injection_times:
                for tc in config.test_cases:
                    got = checkpoints.get((time, tc))
                    if got is None:
                        expected_units += len(boundaries[tc]) - 1
                        continue
                    units, stop = _expected_resume(
                        boundaries[tc],
                        _injected_boundaries(target, config, flip, time, tc),
                        index[tc][got.state],
                        model[tc],
                    )
                    expected_units += units
                    expected[stop] += 1
        tally = Counter()
        memo = {}
        before = StepTarget.UNITS
        for flip in pairs:
            campaign._run_pair(flip, golden_runs, checkpoints, tally=tally, memo=memo)
        assert StepTarget.UNITS - before == expected_units
        assert tally[names.COUNTER_REJOINED] == expected[names.COUNTER_REJOINED]
        assert tally[names.COUNTER_CONVERGED] == expected[names.COUNTER_CONVERGED]


def _injected_boundaries(target, config, flip, time, test_case):
    """``(pickled state, counts, checkable)`` at every unit boundary of
    the injected run replayed from its start; ``checkable`` once the
    flip has fired and the record's sample has been taken."""
    harness = InjectionHarness(
        config.injection_probe, flip, time, sample_probe=config.sample_probe
    )
    state = target.start(test_case)
    seen = []
    while True:
        seen.append(
            (
                pickle.dumps(state),
                harness.occurrence_counts(),
                harness.injected and bool(harness.samples),
            )
        )
        if not target.advance(state, harness):
            return seen


def _expected_resume(golden, injected, start, memo):
    """``(units executed, how it stopped)`` of a run resumed at
    boundary ``start``.  Checks begin at the first checkable boundary;
    each next check is the next multiple of a stride that doubles from
    1 up to the cap.  The first check whose (state, counts) equals the
    golden run's at the same boundary stops it (``rejoined``), as does
    the first that ``memo`` holds (``converged``; ``memo`` maps the
    boundaries earlier runs of the test case checked to the boundary
    they ended at).  Every boundary the run checked then takes the
    boundary it ended at; ``None`` means it ran to the end."""
    final = len(injected) - 1
    check = next(
        (i for i in range(start, len(injected)) if injected[i][2]), None
    )
    stride = 1
    checked = []
    executed, end, stop = final - start, final, None
    while check is not None and check <= final:
        state, counts, _ = injected[check]
        if check < len(golden) and (state, counts) == golden[check]:
            executed, end, stop = check - start, len(golden) - 1, names.COUNTER_REJOINED
            break
        key = (check, state, frozenset(counts.items()))
        if key in memo:
            executed, end, stop = check - start, memo[key], names.COUNTER_CONVERGED
            break
        checked.append(key)
        stride = min(2 * stride, CHECK_STRIDE_CAP)
        check = (check // stride + 1) * stride
    memo.update(dict.fromkeys(checked, end))
    return executed, stop


class TestReplayConditions:
    def test_target_without_protocol_replays(self):
        campaign = Campaign(ReplayOnlyTarget(units=3), _config((0, 2), LOCATIONS[0]))
        assert not campaign.target.resumable()
        assert campaign._capture_checkpoints() == {}
        assert _dicts(campaign.run().records) == _dicts(replay_records(campaign))

    @pytest.mark.parametrize("hook", ["_make_harness", "_after_run"])
    def test_harness_hooks_force_replay(self, hook):
        class Hooked(Campaign):
            pass

        if hook == "_make_harness":
            Hooked._make_harness = lambda self, flip, t: InjectionHarness(
                self.config.injection_probe,
                flip,
                t,
                sample_probe=self.config.sample_probe,
            )
        else:
            Hooked._after_run = lambda self, harness, record: None
        campaign = Hooked(StepTarget(units=3), _config((0, 2), LOCATIONS[0]))
        assert campaign._capture_checkpoints() == {}
        with obs.tracing() as tracer:
            run_campaign(campaign)
        (shard, *_) = [s for s in tracer.spans if s.name == names.CAMPAIGN_SHARD]
        assert shard.counters[names.COUNTER_RESUMED] == 0
        assert shard.counters[names.COUNTER_REPLAYED] == shard.counters["runs"]

    def test_sample_probe_ahead_of_injection_time_replays(self):
        # Exit injection, entry sampling: the first unit fires its
        # entry without its exit, so wherever the exit count is 1 the
        # entry count is already 2 -- a resumed run would miss the
        # sample at entry occurrence 1.
        target = StepTarget(units=4, skip_exit=2)
        config = _config((1,), (Location.EXIT, Location.ENTRY))
        campaign = Campaign(target, config)
        assert campaign._capture_checkpoints() == {}
        assert _dicts(campaign.run().records) == _dicts(replay_records(campaign))

    def test_past_the_end_resumes_from_the_final_state(self):
        target = StepTarget(pre_units=2, units=3)
        campaign = Campaign(target, _config((7,), LOCATIONS[0]))
        golden_runs = golden_runs_for(target, campaign.config.test_cases)
        checkpoints = campaign._capture_checkpoints()
        assert set(checkpoints) == {(7, tc) for tc in (0, 1, 2)}
        tally = Counter()
        before = StepTarget.UNITS
        records = campaign._run_pair(
            BitFlip("acc", "int32", 0), golden_runs, checkpoints, tally=tally
        )
        assert StepTarget.UNITS == before  # every cell finished at once
        assert all(r.sample is None and not r.failed for r in records)
        assert _dicts(records) == _dicts(replay_records(campaign)[:3])
        # The flip never fired, so nothing was checked.
        assert tally[names.COUNTER_REJOINED] == 0


def _run_cells(campaign, flip):
    """One pair's records, its rejoin tally and the units it executed."""
    golden_runs = golden_runs_for(campaign.target, campaign.config.test_cases)
    checkpoints = campaign._capture_checkpoints()
    tally = Counter()
    before = StepTarget.UNITS
    records = campaign._run_pair(flip, golden_runs, checkpoints, tally=tally)
    return records, tally, StepTarget.UNITS - before


def _replayed(campaign, flip):
    return [r for r in replay_records(campaign) if r.flip == flip]


class TestRejoin:
    """Edge cases of stopping a resumed run at the golden trail."""

    def test_masked_flips_stop_after_one_unit(self):
        campaign = Campaign(StepTarget(units=6), _config((1,), LOCATIONS[0]))
        flip = BitFlip("scratch", "int32", 3)
        records, tally, units = _run_cells(campaign, flip)
        assert _dicts(records) == _dicts(_replayed(campaign, flip))
        assert tally[names.COUNTER_REJOINED] == 3
        # Each cell runs its injection unit, then matches the trail.
        assert units == 3
        assert tally[names.COUNTER_UNITS_SKIPPED] == 3 * 4

    def test_sample_after_the_injection_unit(self):
        # Entry injection, exit sampling, and unit 0 skips its exit:
        # the state rejoins right after the injection unit, but the
        # record's sample is only taken by the next unit's exit.
        target = StepTarget(units=4, skip_exit=2)
        campaign = Campaign(target, _config((0,), (Location.ENTRY, Location.EXIT)))
        flip = BitFlip("scratch", "int32", 3)
        records, tally, units = _run_cells(campaign, flip)
        assert _dicts(records) == _dicts(_replayed(campaign, flip))
        assert all(r.sample is not None for r in records)
        assert tally[names.COUNTER_REJOINED] == 3
        assert units == 3 * 2

    def test_equal_state_with_different_counts_runs_on(self):
        # The masked scratch flip re-enters Acc once: the state is the
        # golden state again, but the entry count stays one ahead, and
        # the record's temporal impact counts that extra occurrence.
        target = StepTarget(units=4, reenter=True)
        campaign = Campaign(target, _config((1,), LOCATIONS[0]))
        flip = BitFlip("scratch", "int32", 0)
        records, tally, units = _run_cells(campaign, flip)
        assert _dicts(records) == _dicts(_replayed(campaign, flip))
        assert tally[names.COUNTER_REJOINED] == 0
        assert units == 3 * 3
        assert all(r.temporal_impact == 4 for r in records)

    def test_crash_before_rejoining(self):
        # A high-bit flip of the accumulator crashes the injection unit,
        # before the overwrite at the end of it could mask the flip.
        target = StepTarget(units=4, crash_above=64, reset_every=1)
        campaign = Campaign(target, _config((1,), LOCATIONS[0]))
        flip = BitFlip("acc", "int32", 31)
        records, tally, _ = _run_cells(campaign, flip)
        assert _dicts(records) == _dicts(_replayed(campaign, flip))
        assert all(r.crashed and r.failed for r in records)
        assert tally[names.COUNTER_REJOINED] == 0

    def test_overwritten_flip_rejoins(self):
        target = StepTarget(units=6, reset_every=3)
        campaign = Campaign(target, _config((0,), LOCATIONS[0]))
        flip = BitFlip("acc", "int32", 8)
        records, tally, units = _run_cells(campaign, flip)
        assert _dicts(records) == _dicts(_replayed(campaign, flip))
        assert all(r.failed is False for r in records)
        # Checks after units 1, 2 and 4; the reset in unit 3 (step 2)
        # masks the flip, so the check after unit 4 matches.
        assert tally[names.COUNTER_REJOINED] == 3
        assert units == 3 * 4

    def test_serial_span_counts_rejoins(self):
        campaign = Campaign(StepTarget(units=6), _config((1,), LOCATIONS[0]))
        with obs.tracing() as tracer:
            result = campaign.run()
        shards = [s for s in tracer.spans if s.name == names.CAMPAIGN_SHARD]

        def total(counter):
            return sum(s.counters[counter] for s in shards)

        assert total("runs") == len(result.records) == 24
        # The scratch flips (12 cells) are masked and stop one unit in,
        # skipping 4 of 6 units each; the accumulator flips never rejoin.
        assert total(names.COUNTER_REJOINED) == 12
        assert total(names.COUNTER_UNITS_SKIPPED) == 12 * 4


class _PicklingPool(SerialPool):
    """An in-process pool that pickles every task's arguments before
    and after running the tasks."""

    def __init__(self):
        super().__init__(isolate=False)
        self.before: list[bytes] = []
        self.after: list[bytes] = []

    def run(self, tasks, on_result=None):
        self.before += [pickle.dumps(task.args) for task in tasks]
        outcomes = super().run(tasks, on_result)
        self.after += [pickle.dumps(task.args) for task in tasks]
        return outcomes


def _converging_campaign():
    """Accumulator flips of bit 8 push it over the clamp at once, so
    the runs injected at times 0, 3 and 5 of a test case all sit at the
    clamp from their injection on: later ones meet earlier ones at a
    checked boundary, never the golden run."""
    return Campaign(StepTarget(units=9, clamp=50), _config((0, 3, 5), LOCATIONS[0]))


def _shard_total(tracer, counter):
    return sum(
        s.counters[counter] for s in tracer.spans if s.name == names.CAMPAIGN_SHARD
    )


@pytest.fixture(scope="class")
def two_workers():
    with ProcessPool(2, backoff=0) as pool:
        yield pool


class TestConvergence:
    """Runs that stop where an earlier run of the same call went."""

    @given(step_campaigns())
    @settings(max_examples=25, deadline=None)
    def test_serial_and_pooled_runs_match_replay(self, two_workers, campaign):
        expected = _dicts(replay_records(campaign))
        assert _dicts(run_campaign(campaign).records) == expected
        assert _dicts(run_campaign(campaign, pool=two_workers).records) == expected

    def test_converging_runs_match_replay(self, two_workers):
        campaign = _converging_campaign()
        expected = _dicts(replay_records(campaign))
        with obs.tracing() as tracer:
            assert _dicts(run_campaign(campaign).records) == expected
        assert _shard_total(tracer, names.COUNTER_CONVERGED) > 0
        assert _shard_total(tracer, names.COUNTER_REJOINED) > 0  # scratch flips
        assert _dicts(run_campaign(campaign, pool=two_workers).records) == expected

    def test_crash_after_converging(self):
        # Bit 5 (+32) at time 5 lifts the accumulator to 47 + test case,
        # over the clamp one unit later; at time 6 it is over at once.
        # Both runs then sit at the clamp until step 9 overflows.  The
        # time-6 runs reach boundary 8, which the time-5 runs checked
        # on their way to the crash, and take the crash.
        target = StepTarget(units=10, clamp=50, crash_above=58)
        config = dataclasses.replace(
            _config((5, 6), LOCATIONS[0]), variables=("acc",), bits=(5,)
        )
        campaign = Campaign(target, config)
        flip = BitFlip("acc", "int32", 5)
        golden_runs = golden_runs_for(target, campaign.config.test_cases)
        checkpoints = campaign._capture_checkpoints()
        tally, memo = Counter(), {}
        records = campaign._run_pair(
            flip, golden_runs, checkpoints, tally=tally, memo=memo
        )
        assert _dicts(records) == _dicts(_replayed(campaign, flip))
        assert all(r.crashed and r.failed for r in records)
        assert tally[names.COUNTER_CONVERGED] == 3
        assert tally[names.COUNTER_REJOINED] == 0
        # The memo keeps that the runs crashed, not their exceptions.
        outcomes = [o for cells in memo.values() for o in cells.values()]
        assert outcomes and all(o.crashed and o.output is None for o in outcomes)

    def test_equal_state_with_different_counts_does_not_converge(self):
        # Scratch bit 0 re-enters Acc once, bit 3 (8 mod 3) twice: both
        # runs are back in the golden state one unit in, with entry
        # counts one and two ahead -- two different suffixes.
        target = StepTarget(units=4, reenter=True)
        config = dataclasses.replace(
            _config((1,), LOCATIONS[0]), variables=("scratch",), bits=(0, 3)
        )
        campaign = Campaign(target, config)
        with obs.tracing() as tracer:
            records = run_campaign(campaign).records
        assert _dicts(records) == _dicts(replay_records(campaign))
        assert [r.temporal_impact for r in records] == [4] * 3 + [5] * 3
        assert _shard_total(tracer, names.COUNTER_CONVERGED) == 0

    def test_memo_is_not_in_shard_args(self):
        campaign = _converging_campaign()
        pool = _PicklingPool()
        with obs.tracing() as tracer:
            run_campaign(campaign, pool=pool)
        assert _shard_total(tracer, names.COUNTER_CONVERGED) > 0
        assert pool.before and pool.after == pool.before
        assert campaigns._MEMO is None  # the in-process memo ends with the call


# ----------------------------------------------------------------------
# The per-run cost counters reconcile with a full replay
# ----------------------------------------------------------------------
def _replay_units(target, config, flip, time, test_case) -> int:
    """The boundary an injected run replayed from its start ends at:
    the final one, or the one whose unit crashed."""
    harness = InjectionHarness(
        config.injection_probe, flip, time, sample_probe=config.sample_probe
    )
    state = target.start(test_case)
    unit = 0
    try:
        while target.advance(state, harness):
            unit += 1
    except Exception:
        pass
    return unit


_COST = (
    names.COUNTER_UNITS,
    names.COUNTER_UNITS_SKIPPED,
    names.COUNTER_RESTORES,
    names.COUNTER_RESUMED,
    names.COUNTER_CHECKS,
)


def _cost_totals(spans) -> Counter:
    totals = Counter()
    for span in spans:
        if span.name == names.CAMPAIGN_SHARD:
            totals.update({c: span.counters.get(c, 0) for c in _COST})
    return totals


def _flips(campaign) -> list[BitFlip]:
    return [
        BitFlip(spec.name, spec.kind, bit)
        for spec in campaign._targeted_specs()
        for bit in campaign._bits_for(spec)
    ]


class TestCostCounters:
    """``units`` + ``units_skipped`` of every resumed cell equal the
    units a full replay runs after its checkpoint, and every resumed
    cell restores once, in any pool."""

    def _expected(self, campaign) -> dict:
        """Per resumed cell, the units a full replay runs after the
        checkpoint."""
        checkpoints = campaign._capture_checkpoints()
        after = {}
        for flip in _flips(campaign):
            for (time, tc), checkpoint in checkpoints.items():
                replayed = _replay_units(campaign.target, campaign.config, flip, time, tc)
                after[(flip, time, tc)] = replayed - checkpoint.unit
        return after

    @given(step_campaigns())
    @settings(max_examples=40, deadline=None)
    def test_every_resumed_cell_reconciles(self, campaign):
        after = self._expected(campaign)
        golden_runs = golden_runs_for(campaign.target, campaign.config.test_cases)
        checkpoints = campaign._capture_checkpoints()
        memo: dict = {}
        for flip in _flips(campaign):
            for time in campaign.config.injection_times:
                for tc in campaign.config.test_cases:
                    checkpoint = checkpoints.get((time, tc))
                    tally = Counter()
                    campaign._run_one(
                        flip,
                        time,
                        tc,
                        golden_runs[tc],
                        checkpoint=checkpoint,
                        tally=tally,
                        memo=memo.setdefault(tc, {}),
                    )
                    if checkpoint is None:
                        assert not tally
                        continue
                    units = tally[names.COUNTER_UNITS]
                    assert units + tally[names.COUNTER_UNITS_SKIPPED] == after[
                        (flip, time, tc)
                    ]
                    assert tally[names.COUNTER_RESTORES] == 1
                    # A run checks at most once per unit it executed,
                    # plus where it stopped.
                    assert tally[names.COUNTER_CHECKS] <= units + 1
                    assert (tally[names.COUNTER_CHECK_BYTES] > 0) == (
                        tally[names.COUNTER_CHECKS] > 0
                    )

    @pytest.mark.parametrize("pooled", [False, True], ids=["serial", "process2"])
    def test_shard_totals_are_exact_in_any_pool(self, pooled, tmp_path):
        campaign = _converging_campaign()
        after = self._expected(campaign)
        path = tmp_path / "trace.jsonl"
        with obs.tracing_to(path):
            if pooled:
                with ProcessPool(2, backoff=0) as pool:
                    result = run_campaign(campaign, pool=pool)
            else:
                result = run_campaign(campaign, pool=SerialPool())
        assert _dicts(result.records) == _dicts(replay_records(campaign))
        spans = obs.load_trace(path)
        shards = [s for s in spans if s.name == names.CAMPAIGN_SHARD]
        assert {s.attributes["target"] for s in shards} == {"ST"}
        if pooled:  # every shard ran, and was counted, in a worker
            assert os.getpid() not in {s.pid for s in shards}
        totals = _cost_totals(spans)
        assert totals[names.COUNTER_UNITS] + totals[
            names.COUNTER_UNITS_SKIPPED
        ] == sum(after.values())
        assert totals[names.COUNTER_RESTORES] == totals[names.COUNTER_RESUMED] == len(after)
        assert totals[names.COUNTER_CHECKS] > 0


# ----------------------------------------------------------------------
# One fault-free stepping per (target, test case)
# ----------------------------------------------------------------------
class StartCounter(StepTarget):
    """``StepTarget`` counting its runs started, per test case.  The
    count is a class attribute: an instance attribute would enter the
    target's fingerprint and change it."""

    STARTS: Counter = Counter()

    def start(self, test_case):
        type(self).STARTS[test_case] += 1
        return super().start(test_case)


class TestOneStepping:
    def test_a_second_campaign_does_not_step_again(self):
        target = StartCounter(pre_units=2, units=5, skip_exit=3)
        first = Campaign(target, _config((1, 3), LOCATIONS[0]))
        second = Campaign(target, _config((0, 2, 7), LOCATIONS[2]))
        clear_reuse_caches()
        StartCounter.STARTS.clear()
        first_checkpoints = first._capture_checkpoints()
        assert StartCounter.STARTS == Counter({0: 1, 1: 1, 2: 1})
        second_checkpoints = second._capture_checkpoints()
        assert StartCounter.STARTS == Counter({0: 1, 1: 1, 2: 1})
        trails = {tc: cp.trail for (_, tc), cp in first_checkpoints.items()}
        assert all(cp.trail is trails[tc] for (_, tc), cp in second_checkpoints.items())
        # The selected checkpoints are those of an independent stepping.
        for (time, tc), checkpoint in second_checkpoints.items():
            state, counts = _expected_checkpoint(
                _boundaries(target, tc), second.config, time
            )
            assert (checkpoint.state, checkpoint.occurrences) == (state, counts)
        assert _dicts(second.run().records) == _dicts(replay_records(second))

    def test_disabled_caches_step_every_time(self):
        target = StartCounter(units=4)
        campaign = Campaign(target, _config((1,), LOCATIONS[0]))
        StartCounter.STARTS.clear()
        with reuse_caches_disabled():
            campaign._capture_checkpoints()
            campaign._capture_checkpoints()
        assert StartCounter.STARTS == Counter({0: 2, 1: 2, 2: 2})


# ----------------------------------------------------------------------
# The Table II datasets
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(DATASET_SPECS))
def test_table2_shard_path_matches_replay(name):
    scale = get_scale("smoke")
    spec = DATASET_SPECS[name]
    campaign = Campaign(build_target(spec.target, scale), campaign_config(spec, scale))
    with obs.tracing() as tracer:
        result = run_campaign(campaign)
    assert _dicts(result.records) == _dicts(replay_records(campaign))
    shards = [s for s in tracer.spans if s.name == names.CAMPAIGN_SHARD]
    resumed = sum(s.counters[names.COUNTER_RESUMED] for s in shards)
    replayed = sum(s.counters[names.COUNTER_REPLAYED] for s in shards)
    assert resumed == len(result.records) and replayed == 0
    rejoined = sum(s.counters[names.COUNTER_REJOINED] for s in shards)
    if name == "MG-B3":
        assert rejoined > 0
    elif name == "FG-B1":
        assert rejoined == 0
    if name in ("7Z-A1", "FG-A1"):
        assert sum(s.counters[names.COUNTER_CONVERGED] for s in shards) > 0
    (capture,) = [s for s in tracer.spans if s.name == names.CAMPAIGN_CHECKPOINT]
    assert capture.counters["checkpoints"] == len(campaign.config.test_cases) * len(
        campaign.config.injection_times
    )


def test_checkpoints_cross_process_boundaries():
    """Worker processes receive the checkpoints with the shard's
    arguments and resume from them to the same records."""
    scale = get_scale("smoke")
    spec = DATASET_SPECS["MG-B1"]
    campaign = Campaign(build_target(spec.target, scale), campaign_config(spec, scale))
    with ProcessPool(2) as pool:
        result = campaign.run(pool=pool)
    assert _dicts(result.records) == _dicts(replay_records(campaign))
