"""Campaign orchestration: determinism, resume from the campaign store,
quarantine synthesis, and campaign-store interop (prune-composition,
pooled runs, quarantine exclusion)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injection.campaign import Campaign
from repro.injection.instrument import Location
from repro.injection.store import CampaignStore
from repro.orchestration import (
    ProcessPool,
    SerialPool,
    plan_pairs,
    run_campaign,
)

from tests.orchestration._targets import (
    CrashingGridTarget,
    GridTarget,
    grid_config,
    run_grid_campaign,
)


class TestDeterminism:
    """Satellite: parallel execution is bit-identical to serial."""

    def test_two_invocations_identical(self):
        first = run_grid_campaign().run()
        second = run_grid_campaign().run()
        assert first.records == second.records

    def test_serial_pool_matches_plain_serial(self):
        serial = run_grid_campaign()._run_serial()
        pooled = run_grid_campaign().run(pool=SerialPool())
        assert pooled.records == serial.records
        assert pooled.golden_runs.keys() == serial.golden_runs.keys()

    def test_jobs1_matches_jobs4(self):
        with ProcessPool(1, backoff=0) as one, ProcessPool(4, backoff=0) as four:
            a = run_grid_campaign().run(pool=one)
            b = run_grid_campaign().run(pool=four)
        assert a.records == b.records
        assert a.records == run_grid_campaign()._run_serial().records

    def test_shard_size_does_not_change_records(self):
        serial = run_grid_campaign()._run_serial()
        for shard_size in (1, 2, 5, 100):
            result = run_grid_campaign().run(
                pool=SerialPool(), shard_size=shard_size
            )
            assert result.records == serial.records

    @settings(max_examples=15, deadline=None)
    @given(
        test_cases=st.lists(
            st.integers(min_value=0, max_value=5), min_size=1, max_size=3,
            unique=True,
        ),
        times=st.lists(
            st.integers(min_value=0, max_value=3), min_size=1, max_size=2,
            unique=True,
        ),
        bits=st.lists(
            st.integers(min_value=0, max_value=31), min_size=1, max_size=3,
            unique=True,
        ),
        shard_size=st.integers(min_value=1, max_value=7),
    )
    def test_property_parallel_equals_serial(
        self, test_cases, times, bits, shard_size
    ):
        config = grid_config(
            test_cases=tuple(test_cases),
            injection_times=tuple(times),
            bits=tuple(bits),
        )
        serial = Campaign(GridTarget(), config)._run_serial()
        merged = Campaign(GridTarget(), config).run(
            pool=SerialPool(), shard_size=shard_size
        )
        assert merged.records == serial.records


class TestJournalResume:
    """Resuming a killed campaign is running it again against its store:
    every shard file is written as the shard completes, and the store
    recovers shards its index does not list."""

    def test_resume_after_partial_journal(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        full = run_grid_campaign().run(pool=SerialPool(), store=store)
        assert full.orchestration["executed"] == full.orchestration["tasks"]

        # Simulate a mid-flight kill: half the shard files never landed
        # and the index was never flushed.
        shards = sorted((tmp_path / "store" / "shards").iterdir())
        lost = shards[::2]
        for path in lost:
            path.unlink()
        (tmp_path / "store" / "index.json").unlink()
        resumed = run_grid_campaign().run(
            pool=SerialPool(), store=CampaignStore(tmp_path / "store")
        )
        assert resumed.records == full.records
        assert resumed.orchestration["executed"] == len(lost)
        assert resumed.orchestration["stored"] == (
            full.orchestration["tasks"] - len(lost)
        )
        assert resumed.orchestration["store"]["writes"] == len(lost)
        assert sorted(
            path.name for path in (tmp_path / "store" / "shards").iterdir()
        ) == [path.name for path in shards]

    def test_complete_journal_executes_nothing(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        first = run_grid_campaign().run(pool=SerialPool(), store=store)
        again = run_grid_campaign().run(pool=SerialPool(), store=store)
        assert again.records == first.records
        assert again.orchestration["executed"] == 0
        assert again.orchestration["stored"] == again.orchestration["tasks"]

    def test_config_change_invalidates_checkpoints(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        run_grid_campaign().run(pool=SerialPool(), store=store)
        changed = run_grid_campaign(injection_times=(1, 3)).run(
            pool=SerialPool(), store=store
        )
        assert changed.orchestration["stored"] == 0

    def test_target_edit_invalidates_journaled_shards(
        self, tmp_path, monkeypatch
    ):
        """A store is only as fresh as the target source its shards
        ran against: after an edit to the injected module's closure, a
        rerun must re-execute every shard, not replay it."""
        import dataclasses
        import inspect

        from repro.experiments.datasets import (
            DATASET_SPECS,
            build_target,
            campaign_config,
        )
        from repro.experiments.scale import get_scale
        import repro.targets.mp3gain.replaygain as replaygain

        scale = get_scale("smoke")
        spec = DATASET_SPECS["MG-B1"]
        config = dataclasses.replace(
            campaign_config(spec, scale), test_cases=(0,), bits=(0, 31)
        )

        def campaign():
            return Campaign(build_target(spec.target, scale), config)

        store = CampaignStore(tmp_path / "store")
        first = campaign().run(pool=SerialPool(), store=store)
        assert first.orchestration["executed"] == first.orchestration["tasks"]
        again = campaign().run(pool=SerialPool(), store=store)
        assert again.orchestration["stored"] == again.orchestration["tasks"]

        # Edit RGain's module source as inspect (and so the module
        # fingerprint) sees it.
        real_getsource = inspect.getsource

        def edited_getsource(unit):
            text = real_getsource(unit)
            if unit is replaygain:
                text += "\nREFERENCE_LOUDNESS_DB = REFERENCE_LOUDNESS_DB + 0.0\n"
            return text

        monkeypatch.setattr(inspect, "getsource", edited_getsource)
        edited = campaign().run(pool=SerialPool(), store=store)
        assert edited.orchestration["stored"] == 0
        assert edited.orchestration["executed"] == edited.orchestration["tasks"]
        fresh = campaign().run(pool=SerialPool())
        assert [r.to_dict() for r in edited.records] == [
            r.to_dict() for r in fresh.records
        ]


class TestQuarantineSynthesis:
    def test_worker_killing_shard_becomes_crash_records(self):
        # Sign-bit flips of acc drive the crashing target to os._exit:
        # those shards keep killing their worker and are quarantined;
        # the campaign synthesises crash records for their runs.
        config = grid_config(bits=(0, 31), variables=("acc",))
        campaign = Campaign(CrashingGridTarget(), config)
        with ProcessPool(2, max_retries=1, backoff=0) as pool:
            result = campaign.run(pool=pool)
        quarantined = result.orchestration["quarantined"]
        assert quarantined, "expected the sign-flip shard to be quarantined"
        crash = [r for r in result.records if r.crashed]
        assert crash
        for record in crash:
            assert record.failed
            assert record.deviated
            assert record.sample is None
        # Benign shards still produced ordinary records.
        assert any(not r.crashed for r in result.records)
        # Record count is the full planned grid despite the casualties.
        expected = len(plan_pairs(campaign)) * len(config.injection_times) * len(
            config.test_cases
        )
        assert result.n_runs == expected


class TestValidationGuard:
    def test_after_run_subclass_forced_serial(self):
        observed = []

        class Observing(Campaign):
            def _after_run(self, harness, record):
                observed.append(record.test_case)

        campaign = Observing(GridTarget(), grid_config())
        with ProcessPool(2, backoff=0) as pool:
            result = campaign.run(pool=pool)
        # The hook must have seen every run in-process.
        assert len(observed) == result.n_runs
        assert result.orchestration["jobs"] == 1


class TestStoreInterop:
    """The campaign store composes with every way of running a
    campaign: pruned and exhaustive campaigns of the same slice share
    shards (the config slice drops the variable/bit selection;
    ``pairs`` carry it), pooled runs store what serial runs load, and
    quarantined shards are never persisted."""

    def test_exhaustive_store_serves_pruned_campaign(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        exhaustive = run_grid_campaign().run(store=store)

        pruned = run_grid_campaign().run(prune="static", store=store)
        # Static pruning drops the dead ``scratch`` pairs; every
        # surviving shard was already stored by the exhaustive run.
        assert 0 < pruned.orchestration["tasks"] < (
            exhaustive.orchestration["tasks"]
        )
        assert pruned.orchestration["stored"] == pruned.orchestration["tasks"]
        assert pruned.orchestration["executed"] == 0
        assert [r.to_dict() for r in pruned.records] == [
            r.to_dict() for r in exhaustive.records
        ]

    def test_pruned_store_partially_serves_exhaustive(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        pruned = run_grid_campaign().run(prune="static", store=store)
        survivors = pruned.orchestration["tasks"]

        exhaustive = run_grid_campaign().run(store=store)
        assert exhaustive.orchestration["stored"] == survivors
        assert exhaustive.orchestration["executed"] == (
            exhaustive.orchestration["tasks"] - survivors
        )
        assert exhaustive.records == run_grid_campaign()._run_serial().records

    def test_pooled_store_run_is_bit_identical(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        with ProcessPool(2, backoff=0) as pool:
            cold = run_grid_campaign().run(pool=pool, store=store)
        assert cold.orchestration["store"]["writes"] == (
            cold.orchestration["tasks"]
        )
        warm = run_grid_campaign().run(store=store)
        assert warm.orchestration["stored"] == warm.orchestration["tasks"]
        serial = run_grid_campaign()._run_serial()
        assert cold.records == serial.records
        assert warm.records == serial.records

    def test_quarantined_shards_never_stored(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        config = grid_config(bits=(0, 31), variables=("acc",))
        with ProcessPool(2, max_retries=1, backoff=0) as pool:
            result = Campaign(CrashingGridTarget(), config).run(
                pool=pool, store=store
            )
        quarantined = result.orchestration["quarantined"]
        assert quarantined, "expected the sign-flip shard to be quarantined"
        # Synthesized crash records must not poison the store: only
        # the shards that genuinely ran were written.
        assert result.orchestration["store"]["writes"] == (
            result.orchestration["tasks"] - len(quarantined)
        )
        assert all(not entry.stale for entry in store.entries())
        assert len(store.entries()) == (
            result.orchestration["tasks"] - len(quarantined)
        )


class TestRunCampaignDirect:
    def test_default_pool_is_serial(self):
        result = run_campaign(run_grid_campaign())
        assert result.records == run_grid_campaign()._run_serial().records
        assert result.orchestration["jobs"] == 1

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ValueError):
            run_campaign(run_grid_campaign(), shard_size=0)
