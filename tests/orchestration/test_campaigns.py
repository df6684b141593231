"""Campaign orchestration: determinism, resume from the campaign store,
quarantine synthesis, and campaign-store interop (prune-composition,
pooled runs, quarantine exclusion)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.injection.campaign import Campaign
from repro.injection.sampling import SamplingSpec
from repro.injection.store import CampaignStore
from repro.orchestration import (
    ProcessPool,
    SerialPool,
    plan_pairs,
    run_campaign,
)

from tests.injection._replay import replay_records
from tests.orchestration._targets import (
    CrashingGridTarget,
    GridTarget,
    grid_config,
    run_grid_campaign,
)


def _dicts(records):
    return [record.to_dict() for record in records]


def _replayed(campaign):
    """The reference: the independent full-replay loop, not the
    orchestrated path under test."""
    return _dicts(replay_records(campaign))


class TestDeterminism:
    """Satellite: parallel execution is bit-identical to serial."""

    def test_two_invocations_identical(self):
        first = run_grid_campaign().run()
        second = run_grid_campaign().run()
        assert first.records == second.records

    def test_serial_pool_matches_plain_serial(self):
        serial = run_grid_campaign().run()
        pooled = run_grid_campaign().run(pool=SerialPool())
        assert _dicts(pooled.records) == _replayed(run_grid_campaign())
        assert pooled.records == serial.records

    def test_jobs1_matches_jobs4(self):
        with ProcessPool(1, backoff=0) as one, ProcessPool(4, backoff=0) as four:
            a = run_grid_campaign().run(pool=one)
            b = run_grid_campaign().run(pool=four)
        assert a.records == b.records
        assert _dicts(a.records) == _replayed(run_grid_campaign())

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
    )
    def test_property_parallel_equals_serial(self, test_cases, times, bits):
        config = grid_config(
            test_cases=tuple(test_cases),
            injection_times=tuple(times),
            bits=tuple(bits),
        )
        merged = Campaign(GridTarget(), config).run(pool=SerialPool())
        assert _dicts(merged.records) == _replayed(
            Campaign(GridTarget(), config)
        )


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


class Boom(RuntimeError):
    pass


class HarnessBug(Campaign):
    """A campaign whose harness factory fails on the third run."""

    calls = 0

    def _make_harness(self, flip, injection_time):
        type(self).calls += 1
        if type(self).calls == 3:
            raise Boom("harness factory bug")
        return super()._make_harness(flip, injection_time)


class TestInProcessErrors:
    """Without a pool the run is the plain in-process loop: an
    exception raised by campaign code propagates once, unretried,
    instead of becoming quarantined crash records."""

    @pytest.mark.parametrize(
        "overrides, sampling",
        [({}, None), ({"prune": "static"}, None), ({}, SamplingSpec())],
        ids=["exhaustive", "pruned", "sampled"],
    )
    def test_harness_error_propagates(self, overrides, sampling, tmp_path):
        for store in (None, CampaignStore(tmp_path / "store")):
            HarnessBug.calls = 0
            campaign = HarnessBug(GridTarget(), grid_config(**overrides))
            with pytest.raises(Boom):
                campaign.run(sampling=sampling, store=store)
            assert HarnessBug.calls == 3

    def test_after_run_error_propagates_from_any_pool(self):
        seen = []

        class Observing(Campaign):
            def _after_run(self, harness, record):
                seen.append(record)
                raise Boom("hook bug")

        with ProcessPool(2, backoff=0) as pool:
            for chosen in (None, SerialPool(backoff=0), pool):
                seen.clear()
                with pytest.raises(Boom):
                    Observing(GridTarget(), grid_config()).run(pool=chosen)
                assert len(seen) == 1

    def test_validation_error_propagates_without_duplicate_verdicts(self):
        from repro.core.detector import Detector
        from repro.core.predicate import TruePredicate
        from repro.core.validate import ValidationCampaign

        class Failing(ValidationCampaign):
            def _after_run(self, harness, record):
                super()._after_run(harness, record)
                if len(self._verdicts) == 2:
                    raise Boom("verdict bug")

        campaign = Failing(GridTarget(), grid_config(), Detector(TruePredicate()))
        with pytest.raises(Boom):
            campaign.validate()
        assert len(campaign._verdicts) == 2

    def test_explicit_pool_still_isolates(self):
        HarnessBug.calls = 0
        result = HarnessBug(GridTarget(), grid_config()).run(
            pool=SerialPool(max_retries=1, backoff=0)
        )
        # The failing shard is retried (the retry succeeds) and the
        # run completes.
        assert result.orchestration["quarantined"] == []
        assert HarnessBug.calls > result.n_runs


class TestStoreInterop:
    """The campaign store composes with every way of running a
    campaign: pruned and exhaustive campaigns of the same slice share
    shards (the config slice drops the variable/bit selection;
    ``pairs`` carry it), pooled runs store what serial runs load, and
    quarantined shards are never persisted."""

    def test_exhaustive_store_serves_pruned_campaign(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        exhaustive = run_grid_campaign().run(store=store)

        pruned = run_grid_campaign(prune="static").run(store=store)
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
        pruned = run_grid_campaign(prune="static").run(store=store)
        survivors = pruned.orchestration["tasks"]

        exhaustive = run_grid_campaign().run(store=store)
        assert exhaustive.orchestration["stored"] == survivors
        assert exhaustive.orchestration["executed"] == (
            exhaustive.orchestration["tasks"] - survivors
        )
        assert _dicts(exhaustive.records) == _replayed(run_grid_campaign())

    def test_pooled_store_run_is_bit_identical(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        with ProcessPool(2, backoff=0) as pool:
            cold = run_grid_campaign().run(pool=pool, store=store)
        assert cold.orchestration["store"]["writes"] == (
            cold.orchestration["tasks"]
        )
        warm = run_grid_campaign().run(store=store)
        assert warm.orchestration["stored"] == warm.orchestration["tasks"]
        serial = _replayed(run_grid_campaign())
        assert _dicts(cold.records) == serial
        assert _dicts(warm.records) == serial

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


class TestReconciledSummary:
    """Every ``Campaign.run`` result carries one ``orchestration``
    summary whose shard outcomes add up to its task count, however
    many batches the run drew."""

    @pytest.mark.parametrize("stored", [False, True], ids=["storeless", "store"])
    @pytest.mark.parametrize(
        "overrides, sampling",
        [
            ({}, None),
            ({"prune": "static"}, None),
            ({}, SamplingSpec(min_cells=2, round_cells=2)),
            ({"prune": "static"}, SamplingSpec(min_cells=2, round_cells=2)),
            # Every pair of ``scratch`` is statically dead: nothing is
            # drawn, and the summary still reports zero tasks.
            (
                {"prune": "static", "variables": ("scratch",)},
                SamplingSpec(),
            ),
        ],
        ids=["exhaustive", "pruned", "sampled", "pruned-sampled", "all-dead"],
    )
    def test_summary_adds_up(self, overrides, sampling, stored, tmp_path):
        store = CampaignStore(tmp_path / "store") if stored else None
        campaign = run_grid_campaign(**overrides)
        result = campaign.run(sampling=sampling, store=store)
        summary = result.orchestration
        assert summary["executed"] + summary["stored"] + summary["sibling"] + (
            len(summary["quarantined"])
        ) == summary["tasks"]
        assert summary["jobs"] == 1
        if not stored:
            assert "store" not in summary
        elif summary["tasks"]:
            assert summary["store"]["writes"] == summary["executed"]
        if "variables" in overrides:
            assert summary["tasks"] == 0
            assert result.records, "dead cells are synthesized"
        else:
            assert summary["tasks"] > 0


class TestRunCampaignDirect:
    def test_default_pool_is_serial(self):
        result = run_campaign(run_grid_campaign())
        assert _dicts(result.records) == _replayed(run_grid_campaign())
        assert result.orchestration["jobs"] == 1
