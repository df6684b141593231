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
re-enters the module (equal state, different counts), and a
two-phase run whose injected module only fires after another phase.
The checkpoint positions and the units each resumed run executes are
pinned against an independent stepping of the runs, so a checkpoint
one boundary early or late, or a rejoin check at the wrong boundary,
fails even where its records would still agree.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.experiments.datasets import DATASET_SPECS, build_target, campaign_config
from repro.experiments.scale import get_scale
from repro.injection.bitflip import BitFlip
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.golden import golden_runs_for
from repro.injection.instrument import Harness, InjectionHarness, Location, Probe, VariableSpec
from repro.observability import names
from repro.orchestration.campaigns import run_campaign
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
    earlier flip of it.  ``scratch`` is read by nothing, so a flip of
    it is masked at once -- but with ``reenter`` a non-zero scratch at
    the entry probe makes the unit enter ``Acc`` a second time, so
    the state rejoins the golden run while the probe counts do not.
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
    ):
        self.pre_units = pre_units
        self.units = units
        self.skip_exit = skip_exit
        self.crash_above = crash_above
        self.reset_every = reset_every
        self.reenter = reenter

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
            if self.reenter and probed["scratch"] != 0:
                harness.probe(
                    "Acc", Location.ENTRY, {"acc": state["acc"], "scratch": 0}
                )
            acc = int(probed["acc"]) + step
            if abs(acc) > self.crash_above:
                raise OverflowError(f"accumulator {acc} out of range")
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
        expected_units = expected_rejoins = 0
        pairs = [
            BitFlip(spec.name, spec.kind, bit)
            for spec in campaign._targeted_specs()
            for bit in campaign._bits_for(spec)
        ]
        for tc in config.test_cases:
            boundaries = _boundaries(target, tc)
            index = {state: i for i, (state, _) in enumerate(boundaries)}
            for time in config.injection_times:
                got = checkpoints.get((time, tc))
                for flip in pairs:
                    if got is None:
                        expected_units += len(boundaries) - 1
                        continue
                    units, rejoined = _expected_resume(
                        boundaries,
                        _injected_boundaries(target, config, flip, time, tc),
                        index[got.state],
                    )
                    expected_units += units
                    expected_rejoins += rejoined
        tally = Counter()
        before = StepTarget.UNITS
        for flip in pairs:
            campaign._run_pair(flip, golden_runs, checkpoints, tally=tally)
        assert StepTarget.UNITS - before == expected_units
        assert tally[names.COUNTER_REJOINED] == expected_rejoins


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


def _expected_resume(golden, injected, start):
    """``(units executed, rejoined)`` of a run resumed at boundary
    ``start``: checks begin at the first checkable boundary and land
    0, 1, 3, 7, ... boundaries after it; the first whose (state,
    counts) equals the golden run's at the same boundary stops it."""
    first = next(
        (i for i in range(start, len(injected)) if injected[i][2]), None
    )
    if first is not None:
        check, stride = first, 1
        while check < min(len(golden), len(injected)):
            if injected[check][:2] == golden[check]:
                return check - start, 1
            check += stride
            stride *= 2
    return len(injected) - 1 - start, 0


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
    (capture,) = [s for s in tracer.spans if s.name == names.CAMPAIGN_CHECKPOINT]
    assert capture.counters["checkpoints"] == len(campaign.config.test_cases) * len(
        campaign.config.injection_times
    )


def test_checkpoints_cross_process_boundaries():
    """Worker processes receive the checkpoints with the shard's
    arguments and resume from them to the same records."""
    from repro.orchestration.pool import ProcessPool

    scale = get_scale("smoke")
    spec = DATASET_SPECS["MG-B1"]
    campaign = Campaign(build_target(spec.target, scale), campaign_config(spec, scale))
    with ProcessPool(2) as pool:
        result = campaign.run(pool=pool)
    assert _dicts(result.records) == _dicts(replay_records(campaign))
