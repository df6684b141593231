"""Campaign orchestration: determinism, resume, quarantine synthesis,
and campaign-store interop (journal backfill in both directions,
prune-composition, pooled runs, quarantine exclusion)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injection.campaign import Campaign
from repro.injection.instrument import Location
from repro.injection.store import CampaignStore
from repro.orchestration import (
    Journal,
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
    def test_resume_after_partial_journal(self, tmp_path):
        journal = Journal(tmp_path / "c.jsonl")
        full = run_grid_campaign().run(pool=SerialPool(), journal=journal)
        assert full.orchestration["executed"] == full.orchestration["tasks"]

        # Simulate a mid-flight kill: keep half the lines, tear the next.
        lines = journal.path.read_text().splitlines()
        keep = len(lines) // 2
        journal.path.write_text(
            "\n".join(lines[:keep]) + "\n" + lines[keep][: 25]
        )
        resumed = run_grid_campaign().run(pool=SerialPool(), journal=journal)
        assert resumed.records == full.records
        assert resumed.orchestration["cached"] == keep
        assert resumed.orchestration["executed"] == (
            full.orchestration["tasks"] - keep
        )

    def test_complete_journal_executes_nothing(self, tmp_path):
        journal = Journal(tmp_path / "c.jsonl")
        first = run_grid_campaign().run(pool=SerialPool(), journal=journal)
        again = run_grid_campaign().run(pool=SerialPool(), journal=journal)
        assert again.records == first.records
        assert again.orchestration["executed"] == 0
        assert again.orchestration["cached"] == again.orchestration["tasks"]

    def test_config_change_invalidates_checkpoints(self, tmp_path):
        journal = Journal(tmp_path / "c.jsonl")
        run_grid_campaign().run(pool=SerialPool(), journal=journal)
        changed = run_grid_campaign(injection_times=(1, 3)).run(
            pool=SerialPool(), journal=journal
        )
        assert changed.orchestration["cached"] == 0


    def test_target_edit_invalidates_journaled_shards(
        self, tmp_path, monkeypatch
    ):
        """A journal is only as fresh as the target source its shards
        ran against: after an edit to the injected module's closure,
        ``--resume`` must re-execute every shard, not replay it."""
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

        journal = Journal(tmp_path / "c.jsonl")
        first = campaign().run(pool=SerialPool(), journal=journal)
        assert first.orchestration["executed"] == first.orchestration["tasks"]
        again = campaign().run(pool=SerialPool(), journal=journal)
        assert again.orchestration["cached"] == again.orchestration["tasks"]

        # Edit RGain's module source as inspect (and so the module
        # fingerprint) sees it.
        real_getsource = inspect.getsource

        def edited_getsource(unit):
            text = real_getsource(unit)
            if unit is replaygain:
                text += "\nREFERENCE_LOUDNESS_DB = REFERENCE_LOUDNESS_DB + 0.0\n"
            return text

        monkeypatch.setattr(inspect, "getsource", edited_getsource)
        edited = campaign().run(pool=SerialPool(), journal=journal)
        assert edited.orchestration["cached"] == 0
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
    """The campaign store composes with every other shard source:
    journal checkpoints backfill the store and vice versa, pruned and
    exhaustive campaigns of the same slice share shards (the config
    slice drops the variable/bit selection; ``pairs`` carry it), and
    quarantined shards are never persisted."""

    def test_journal_shards_backfill_the_store(self, tmp_path):
        journal = Journal(tmp_path / "c.jsonl")
        full = run_grid_campaign().run(pool=SerialPool(), journal=journal)

        store = CampaignStore(tmp_path / "store")
        merged = run_grid_campaign().run(
            pool=SerialPool(), journal=journal, store=store
        )
        assert merged.records == full.records
        assert merged.orchestration["cached"] == merged.orchestration["tasks"]
        # Every journal hit was written through to the (cold) store.
        assert merged.orchestration["store"]["misses"] == (
            merged.orchestration["tasks"]
        )
        assert merged.orchestration["store"]["writes"] == (
            merged.orchestration["tasks"]
        )

        # The backfilled store now serves a journal-less run entirely.
        warm = run_grid_campaign().run(store=CampaignStore(tmp_path / "store"))
        assert warm.records == full.records
        assert warm.orchestration["stored"] == warm.orchestration["tasks"]
        assert warm.orchestration["executed"] == 0

    def test_store_shards_backfill_a_fresh_journal(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        full = run_grid_campaign().run(store=store)
        assert full.orchestration["store"]["writes"] == (
            full.orchestration["tasks"]
        )

        journal = Journal(tmp_path / "c.jsonl")
        merged = run_grid_campaign().run(
            pool=SerialPool(), journal=journal, store=store
        )
        assert merged.records == full.records
        assert merged.orchestration["stored"] == merged.orchestration["tasks"]
        assert merged.orchestration["executed"] == 0

        # ... and each store hit checkpointed into the journal, which
        # now resumes the campaign on its own.
        resumed = run_grid_campaign().run(pool=SerialPool(), journal=journal)
        assert resumed.records == full.records
        assert resumed.orchestration["cached"] == (
            resumed.orchestration["tasks"]
        )

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
