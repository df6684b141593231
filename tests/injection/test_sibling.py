"""One injected execution feeds both ``entry/*`` datasets.

A store-backed campaign that injects at the entry runs its shards
dual: one harness samples the entry and the exit probe, and the
sibling campaign (same target and config, the other sample location;
Table II's X1/X2 pairs) takes the handed-over records instead of
executing.  These tests hold the hand-off to the full-replay oracle
(``tests/injection/_replay.py``) and to a direct store-backed run of
the sibling, byte for byte on disk: on the six ``entry/*`` pairs of
Table II in both orders, as a Hypothesis property over a toy stepping
target (crashes between the probes, an exit probe that never fires
or fires ahead of the entry probe, runs that rejoin the golden trail
before the exit sample), under a process pool with and without a
quarantined shard, against the store's disk contents, and within the
hand-off's scope (one store instance, ``hand_off=False``, the
experiment drivers' shared store).  Every campaign run here accounts for each
shard exactly once: executed + stored + sibling + quarantined =
shards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import observability as obs
from repro.experiments.datasets import (
    DATASET_SPECS,
    build_target,
    campaign_config,
    generate_campaign,
)
from repro.experiments.scale import get_scale
from repro.injection.bitflip import BitFlip
from repro.injection.campaign import Campaign, CampaignConfig
from repro.injection.instrument import Harness, Location
from repro.injection.store import CampaignStore
from repro.observability import names
from repro.orchestration import ProcessPool
from repro.orchestration.campaigns import plan_pairs, plan_shards, run_campaign
from repro.orchestration.tasks import fingerprint_of

from tests.injection._replay import replay_records
from tests.injection.test_resume import StepTarget

PAIRS = ("7Z-A", "7Z-B", "FG-A", "FG-B", "MG-A", "MG-B")


def _dicts(records) -> list[dict]:
    return [record.to_dict() for record in records]


def _files(root) -> dict[str, str]:
    root = pathlib.Path(root)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(root.rglob("*.json"))
    }


def _unsequenced(root) -> dict:
    """The store's shard files and index, without the sequence numbers
    that record put order."""
    root = pathlib.Path(root)
    shards = {}
    for path in sorted((root / "shards").glob("*.json")):
        payload = json.loads(path.read_text())
        payload.pop("sequence")
        shards[path.name] = payload
    index = json.loads((root / "index.json").read_text())
    logical = {lid: entry["fingerprint"] for lid, entry in index["logical"].items()}
    return {"shards": shards, "logical": logical}


def _accounted(result) -> dict:
    """The run's orchestration summary, after checking that it
    accounts for every shard once."""
    summary = result.orchestration
    assert (
        summary["executed"]
        + summary["stored"]
        + summary["sibling"]
        + len(summary["quarantined"])
        == summary["tasks"]
    )
    return summary


def _shard_fingerprints(campaign) -> set[str]:
    base = campaign.store_key_base()
    return {
        fingerprint_of({**base, "pairs": [list(pair) for pair in shard]})
        for shard in plan_shards(campaign)
    }


# ----------------------------------------------------------------------
# Table II: the six entry/* pairs
# ----------------------------------------------------------------------
def _table2_pair(pair: str) -> tuple[Campaign, Campaign]:
    """X1 and X2 of ``pair`` on a reduced slice: three variables x
    three bits, each campaign on its own target instance as the
    pipeline builds them."""
    scale = get_scale("smoke")
    campaigns = []
    for k in (1, 2):
        spec = DATASET_SPECS[f"{pair}{k}"]
        target = build_target(spec.target, scale)
        config = campaign_config(spec, scale)
        names_ = tuple(
            s.name for s in target.variables_of(spec.module, Location.ENTRY)[:3]
        )
        campaigns.append(
            Campaign(
                target,
                dataclasses.replace(config, variables=names_, bits=(0, 31, 63)),
            )
        )
    return campaigns[0], campaigns[1]


@pytest.mark.parametrize("first_x1", [True, False], ids=["x1-first", "x2-first"])
@pytest.mark.parametrize("pair", PAIRS)
def test_table2_hand_off_matches_replay_and_direct_store(tmp_path, pair, first_x1):
    x1, x2 = _table2_pair(pair)
    runner, served = (x1, x2) if first_x1 else (x2, x1)
    assert runner._sibling().config == served.config

    store = CampaignStore(tmp_path / "handed")
    ran = _accounted(runner.run(store=store))
    assert ran["executed"] == ran["tasks"]
    assert len(store.siblings) == ran["tasks"]
    result = served.run(store=store)
    summary = _accounted(result)
    assert summary["sibling"] == summary["tasks"]
    assert summary["executed"] == 0
    assert summary["store"]["writes"] == summary["tasks"]
    assert store.siblings == {}
    assert _dicts(result.records) == _dicts(replay_records(served))

    # The direct run: the same two campaigns, the second through a
    # fresh store instance, which holds no hand-off and executes.
    _accounted(runner.run(store=CampaignStore(tmp_path / "direct")))
    direct = served.run(store=CampaignStore(tmp_path / "direct"))
    assert _accounted(direct)["executed"] == summary["tasks"]
    assert _dicts(direct.records) == _dicts(result.records)
    assert _files(tmp_path / "handed") == _files(tmp_path / "direct")


# ----------------------------------------------------------------------
# The dual harness on a toy stepping target
# ----------------------------------------------------------------------
class StoredStepTarget(StepTarget):
    """:class:`StepTarget` with a declared source closure, so its
    campaigns can use the store."""

    def module_sources(self, module):
        self.check_module(module)
        return (StepTarget, StoredStepTarget)


class DoubleExitStepTarget(StoredStepTarget):
    """Fires the exit probe once more after every ``Acc`` unit, so the
    exit count runs ahead of the entry count."""

    def advance(self, state, harness: Harness) -> bool:
        going = super().advance(state, harness)
        if going and state["pre"] >= self.pre_units:
            harness.probe(
                "Acc",
                Location.EXIT,
                {"acc": state["acc"], "scratch": 0, "total": state["acc"]},
            )
        return going


class DyingStepTarget(StoredStepTarget):
    """Kills its process on a negative accumulator, except in the
    process that built it: a segfaulting target under a worker pool,
    which the in-process runs of a test can still execute."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.home = os.getpid()

    def advance(self, state, harness: Harness) -> bool:
        going = super().advance(state, harness)
        if state["acc"] < 0 and os.getpid() != self.home:
            os._exit(13)
        return going


def _step_config(sample: Location, times=(0, 2), bits=(0, 3, 8, 31)):
    return CampaignConfig(
        module="Acc",
        injection_location=Location.ENTRY,
        sample_location=sample,
        test_cases=(0, 1, 2),
        injection_times=times,
        bits=bits,
    )


def _flips(campaign):
    return [
        BitFlip(spec.name, spec.kind, bit)
        for spec in campaign._targeted_specs()
        for bit in campaign._bits_for(spec)
    ]


def _dual_records(campaign, sibling, tally=None):
    """Both campaigns' records from one dual execution per cell."""
    fault_free = campaign._fault_free(sibling)
    own, other = [], []
    for flip in _flips(campaign):
        mine, theirs = campaign._run_pair(flip, fault_free, tally=tally, sibling=sibling)
        own.extend(mine)
        other.extend(theirs)
    return own, other


@st.composite
def dual_campaigns(draw):
    units = draw(st.integers(1, 8))
    target = StoredStepTarget(
        pre_units=draw(st.integers(0, 2)),
        units=units,
        # 1: the exit probe never fires.
        skip_exit=draw(st.sampled_from((0, 1, 2, 3))),
        # 64: high-bit flips crash between the entry and exit probes.
        crash_above=draw(st.sampled_from((1 << 40, 64))),
        reset_every=draw(st.sampled_from((0, 1, 2, 3))),
        reenter=draw(st.booleans()),
    )
    drawn = draw(st.lists(st.integers(0, units + 1), max_size=2))
    times = tuple(sorted({0, units - 1, *drawn}))
    sample = draw(st.sampled_from((Location.ENTRY, Location.EXIT)))
    return Campaign(target, _step_config(sample, times))


class TestDualHarness:
    @given(dual_campaigns())
    @settings(max_examples=60, deadline=None)
    def test_dual_records_equal_two_single_probe_runs(self, campaign):
        sibling = campaign._sibling()
        own, other = _dual_records(campaign, sibling)
        assert _dicts(own) == _dicts(replay_records(campaign))
        assert _dicts(other) == _dicts(replay_records(sibling))
        for single, records in ((campaign.run(), own), (sibling.run(), other)):
            _accounted(single)
            assert _dicts(records) == _dicts(single.records)

    def test_crash_between_the_probes(self):
        campaign = Campaign(
            StoredStepTarget(units=4, crash_above=64), _step_config(Location.ENTRY)
        )
        own, other = _dual_records(campaign, campaign._sibling())
        crashed = [(a, b) for a, b in zip(own, other) if a.crashed]
        assert crashed
        # The entry sample was taken, the run died before the exit.
        assert all(a.sample is not None and b.sample is None for a, b in crashed)
        assert _dicts(own) == _dicts(replay_records(campaign))
        assert _dicts(other) == _dicts(replay_records(campaign._sibling()))

    def test_exit_probe_that_never_fires(self):
        campaign = Campaign(
            StoredStepTarget(units=4, skip_exit=1), _step_config(Location.ENTRY)
        )
        sibling = campaign._sibling()
        own, other = _dual_records(campaign, sibling)
        assert all(record.sample is None for record in other)
        assert any(record.sample is not None for record in own)
        assert _dicts(own) == _dicts(replay_records(campaign))
        assert _dicts(other) == _dicts(replay_records(sibling))

    def test_exit_probe_ahead_of_the_entry_probe(self, tmp_path):
        # A checkpoint where the exit probe has fired more often than
        # the injection time would lose the exit sample: the dual
        # run's checkpoints must suit both probes.
        x1, x2 = _step_pair(DoubleExitStepTarget(units=5, reset_every=2))
        store = CampaignStore(tmp_path / "store")
        _accounted(x1.run(store=store))
        served = x2.run(store=store)
        assert _accounted(served)["sibling"] == served.orchestration["tasks"]
        assert _dicts(served.records) == _dicts(replay_records(x2))

    def test_rejoin_before_the_exit_sample(self):
        # A scratch flip is masked at once, so the entry-sampled run
        # rejoins one unit after the flip; the first unit skips its
        # exit, so the exit sample comes a unit later and the dual run
        # rejoins there.
        campaign = Campaign(
            StoredStepTarget(units=6, skip_exit=2),
            _step_config(Location.ENTRY, times=(0,), bits=(3,)),
        )
        sibling = campaign._sibling()
        flip = BitFlip("scratch", "int32", 3)
        single_fault_free = campaign._fault_free()
        dual_fault_free = campaign._fault_free(sibling)
        single_tally, dual_tally = Counter(), Counter()
        before = StoredStepTarget.UNITS
        single = campaign._run_pair(flip, single_fault_free, tally=single_tally)
        single_units = StoredStepTarget.UNITS - before
        before = StoredStepTarget.UNITS
        own, other = campaign._run_pair(
            flip, dual_fault_free, tally=dual_tally, sibling=sibling
        )
        dual_units = StoredStepTarget.UNITS - before
        cells = len(campaign.config.test_cases)
        assert single_tally[names.COUNTER_REJOINED] == cells
        assert dual_tally[names.COUNTER_REJOINED] == cells
        assert (single_units, dual_units) == (cells, 2 * cells)
        assert _dicts(own) == _dicts(single)
        assert _dicts(own) == _dicts(
            [r for r in replay_records(campaign) if r.flip == flip]
        )
        assert _dicts(other) == _dicts(
            [r for r in replay_records(sibling) if r.flip == flip]
        )
        assert all(record.sample is not None for record in other)


# ----------------------------------------------------------------------
# Pools, disk and traces
# ----------------------------------------------------------------------
def _step_pair(target=None, bits=(0, 3, 8, 31)):
    target = target or StoredStepTarget(units=5, skip_exit=3, reset_every=2)
    return (
        Campaign(target, _step_config(Location.ENTRY, bits=bits)),
        Campaign(target, _step_config(Location.EXIT, bits=bits)),
    )


class TestPools:
    def test_sibling_records_reach_the_parent(self, tmp_path):
        x1, x2 = _step_pair()
        store = CampaignStore(tmp_path / "store")
        with ProcessPool(2, backoff=0) as pool:
            ran = _accounted(x1.run(pool=pool, store=store))
        assert ran["executed"] == ran["tasks"]
        assert set(store.siblings) == _shard_fingerprints(x2)
        served = x2.run(store=store)
        summary = _accounted(served)
        assert summary["sibling"] == summary["tasks"]
        assert _dicts(served.records) == _dicts(replay_records(x2))

    def test_quarantined_dual_shard_leaves_its_sibling_to_execute(self, tmp_path):
        target = DyingStepTarget(units=5, skip_exit=3)
        x1, x2 = _step_pair(target, bits=(0, 31))
        store = CampaignStore(tmp_path / "store")
        with ProcessPool(2, max_retries=0, backoff=0) as pool:
            ran = _accounted(x1.run(pool=pool, store=store))
        quarantined = len(ran["quarantined"])
        assert quarantined
        assert len(store.siblings) == ran["tasks"] - quarantined
        served = x2.run(store=store)
        summary = _accounted(served)
        assert summary["executed"] == quarantined
        assert summary["sibling"] == summary["tasks"] - quarantined
        assert _dicts(served.records) == _dicts(replay_records(x2))


class TestDisk:
    def test_handed_records_reach_disk_only_when_their_campaign_runs(
        self, tmp_path
    ):
        x1, x2 = _step_pair()
        root = tmp_path / "store"
        store = CampaignStore(root)
        ran = _accounted(x1.run(store=store))
        on_disk = {path.stem for path in (root / "shards").glob("*.json")}
        assert on_disk == _shard_fingerprints(x1)
        assert ran["store"]["writes"] == ran["tasks"]
        # A new instance over the same directory sees no hand-off.
        assert CampaignStore(root).siblings == {}

        _accounted(x2.run(store=store))
        on_disk = {path.stem for path in (root / "shards").glob("*.json")}
        assert on_disk == _shard_fingerprints(x1) | _shard_fingerprints(x2)

    def test_handed_and_executed_shards_store_what_a_direct_run_stores(
        self, tmp_path
    ):
        # The runner covers every other pair, so the sibling takes
        # handed-over and executed shards in alternation.  Handed
        # shards are put before the executed ones, so only the
        # sequence numbers may differ from a direct run's.
        x1, x2 = _step_pair()
        every_other = plan_pairs(x1)[::2]
        store = CampaignStore(tmp_path / "handed")
        run_campaign(x1, pairs=every_other, store=store)
        result = x2.run(store=store)
        summary = _accounted(result)
        assert summary["sibling"] == len(every_other)
        assert summary["executed"] == summary["tasks"] - len(every_other)
        run_campaign(x1, pairs=every_other, store=CampaignStore(tmp_path / "direct"))
        direct = x2.run(store=CampaignStore(tmp_path / "direct"))
        assert _accounted(direct)["executed"] == summary["tasks"]
        assert _dicts(result.records) == _dicts(direct.records)
        assert _dicts(result.records) == _dicts(replay_records(x2))
        assert _unsequenced(tmp_path / "handed") == _unsequenced(tmp_path / "direct")

    def test_stored_sibling_shards_are_not_recomputed(self, tmp_path):
        x1, x2 = _step_pair()
        store = CampaignStore(tmp_path / "store")
        _accounted(x2.run(store=CampaignStore(tmp_path / "store")))
        ran = _accounted(x1.run(store=store))
        assert ran["executed"] == ran["tasks"]
        assert store.siblings == {}
        assert _accounted(x2.run(store=store))["stored"] == ran["tasks"]

    def test_storeless_runs_never_run_dual(self):
        x1, _ = _step_pair()
        result = x1.run()
        summary = _accounted(result)
        assert summary["sibling"] == 0 and summary["executed"] == summary["tasks"]
        assert _dicts(result.records) == _dicts(replay_records(x1))


class TestHandOffScope:
    def test_a_store_without_hand_off_never_runs_dual(self, tmp_path):
        x1, x2 = _step_pair()
        store = CampaignStore(tmp_path / "off", hand_off=False)
        ran = _accounted(x1.run(store=store))
        assert store.siblings is None
        served = _accounted(x2.run(store=store))
        assert served["executed"] == served["tasks"]
        assert ran["sibling"] == served["sibling"] == 0
        # The same files a direct run writes: hand-off never persists.
        _accounted(x1.run(store=CampaignStore(tmp_path / "on")))
        _accounted(x2.run(store=CampaignStore(tmp_path / "on")))
        assert _files(tmp_path / "off") == _files(tmp_path / "on")

    def test_generated_datasets_share_a_store_per_cache_dir(self, tmp_path):
        first = generate_campaign("MG-B1", "smoke", cache_dir=tmp_path)
        second = generate_campaign("MG-B2", "smoke", cache_dir=tmp_path)
        assert _accounted(first)["executed"] == first.orchestration["tasks"]
        summary = _accounted(second)
        assert summary["sibling"] == summary["tasks"]
        replayed = generate_campaign("MG-B2", "smoke", use_cache=False)
        assert _dicts(second.records) == _dicts(replayed.records)


class TestTrace:
    def test_counters_count_executed_cells_once(self, tmp_path):
        x1, x2 = _step_pair()
        store = CampaignStore(tmp_path / "store")
        with obs.tracing() as tracer:
            first = x1.run(store=store)
            second = _accounted(x2.run(store=store))
        _accounted(first)
        runs = sum(
            span.counters.get("runs", 0)
            for span in tracer.spans
            if span.name == names.CAMPAIGN_SHARD
        )
        assert runs == len(first.records)
        resolved = [s for s in tracer.spans if s.name == names.STORE_RESOLVE]
        assert [s.counters.get(names.COUNTER_SIBLING, 0) for s in resolved] == [
            0,
            second["tasks"],
        ]
        assert second["sibling"] == second["tasks"]
        # Executed shards are the shard spans; the resolve counters
        # account for the rest.
        executed = sum(1 for s in tracer.spans if s.name == names.CAMPAIGN_SHARD)
        for span, summary in zip(resolved, (first.orchestration, second)):
            assert summary["executed"] + span.counters.get(
                names.COUNTER_STORE_HITS, 0
            ) + span.counters.get(names.COUNTER_SIBLING, 0) == span.counters["shards"]
        assert executed == first.orchestration["executed"] + second["executed"]
