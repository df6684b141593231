"""Refinement-grid orchestration: parity, stored trials, incremental
reuse."""

import dataclasses

import pytest

from repro.core.preprocess import LearnerFactory, model_complexity
from repro.core.refine import RefinementGrid, refine
from repro.injection.store import CampaignStore
from repro.orchestration import (
    ProcessPool,
    SerialPool,
    dataset_fingerprint,
    run_refinement,
)
from repro.orchestration.grids import _callable_tag, code_modules

from tests.orchestration._targets import run_grid_campaign


@pytest.fixture(scope="module")
def dataset():
    return run_grid_campaign().run().to_dataset("GT-ds")


GRID = RefinementGrid(
    undersample_levels=(25.0, 60.0),
    oversample_levels=(200.0,),
    neighbour_counts=(3,),
)


def _serial(dataset, seed=3):
    return refine(
        dataset,
        LearnerFactory("c45"),
        GRID,
        folds=3,
        seed=seed,
        complexity=model_complexity,
    )


def _assert_trials_equal(a, b):
    assert len(a.trials) == len(b.trials)
    for ta, tb in zip(a.trials, b.trials):
        assert ta.plan == tb.plan
        assert ta.evaluation.summary() == tb.evaluation.summary()
        for fa, fb in zip(ta.evaluation.folds, tb.evaluation.folds):
            assert (fa.confusion.matrix == fb.confusion.matrix).all()
            assert fa.complexity == fb.complexity
    assert a.best.plan == b.best.plan
    assert a.best.evaluation.summary() == b.best.evaluation.summary()


class TestParity:
    def test_serial_pool_matches_serial_loop(self, dataset):
        parallel = run_refinement(
            dataset, LearnerFactory("c45"), GRID,
            folds=3, seed=3, complexity=model_complexity, pool=SerialPool(),
        )
        _assert_trials_equal(_serial(dataset), parallel)

    def test_process_pool_matches_serial_loop(self, dataset):
        with ProcessPool(3, backoff=0) as pool:
            parallel = run_refinement(
                dataset, LearnerFactory("c45"), GRID,
                folds=3, seed=3, complexity=model_complexity, pool=pool,
            )
        _assert_trials_equal(_serial(dataset), parallel)

    def test_refine_delegates_to_pool(self, dataset):
        with ProcessPool(2, backoff=0) as pool:
            via_refine = refine(
                dataset, LearnerFactory("c45"), GRID,
                folds=3, seed=3, complexity=model_complexity, pool=pool,
            )
        _assert_trials_equal(_serial(dataset), via_refine)

    def test_empty_grid_rejected(self, dataset):
        empty = RefinementGrid(
            undersample_levels=(), oversample_levels=(), neighbour_counts=()
        )
        with pytest.raises(ValueError):
            run_refinement(
                dataset, LearnerFactory("c45"), empty, pool=SerialPool()
            )


def _stored(dataset, store, grid=GRID, seed=3, learner=None):
    return run_refinement(
        dataset, learner or LearnerFactory("c45"), grid,
        folds=3, seed=seed, complexity=model_complexity,
        pool=SerialPool(), store=store,
    )


class TestJournalledRefinement:
    """Trials stored in the campaign store: reused while their key --
    dataset, plan, CV protocol, callables and mining code -- holds."""

    def test_second_run_fully_cached(self, dataset, tmp_path):
        store = CampaignStore(tmp_path / "store")
        first = _stored(dataset, store)
        assert store.counters["writes"] == GRID.size()
        again = _stored(dataset, CampaignStore(tmp_path / "store"))
        _assert_trials_equal(first, again)
        _assert_trials_equal(_serial(dataset), again)
        # No new shards: nothing was re-executed.
        assert len(CampaignStore(tmp_path / "store").entries()) == GRID.size()

    def test_grid_growth_reuses_existing_trials(self, dataset, tmp_path):
        store = CampaignStore(tmp_path / "store")
        _stored(dataset, store)
        # Oversample levels enumerate last, so appending one keeps every
        # earlier plan's (index, plan) identity: their stored trials are
        # reused and only the new trials execute.
        grown = dataclasses.replace(GRID, oversample_levels=(200.0, 400.0))
        regrown = CampaignStore(tmp_path / "store")
        _stored(dataset, regrown, grid=grown)
        assert regrown.counters["hits"] == GRID.size()
        assert regrown.counters["writes"] == grown.size() - GRID.size()

    def test_seed_change_invalidates_trials(self, dataset, tmp_path):
        store = CampaignStore(tmp_path / "store")
        _stored(dataset, store)
        reseeded = CampaignStore(tmp_path / "store")
        _stored(dataset, reseeded, seed=4)
        assert reseeded.counters["hits"] == 0
        assert reseeded.counters["writes"] == GRID.size()

    def test_mining_code_edit_reexecutes_every_trial(
        self, dataset, tmp_path, monkeypatch
    ):
        """The learner's fingerprint names it, not its code: an edit to
        a ``repro.mining`` module must miss every stored trial."""
        import inspect

        import repro.mining.crossval as crossval

        store = CampaignStore(tmp_path / "store")
        _stored(dataset, store)
        real_getsource = inspect.getsource

        def edited_getsource(unit):
            text = real_getsource(unit)
            if unit is crossval:
                text += "\nEDITED = True\n"
            return text

        monkeypatch.setattr(inspect, "getsource", edited_getsource)
        edited = CampaignStore(tmp_path / "store")
        result = _stored(dataset, edited)
        assert edited.counters["hits"] == 0
        assert edited.counters["invalidated"] == GRID.size()
        assert edited.counters["writes"] == GRID.size()
        _assert_trials_equal(_serial(dataset), result)

    def test_unfingerprinted_learner_is_never_stored(self, dataset, tmp_path):
        store = CampaignStore(tmp_path / "store")
        factory = LearnerFactory("c45")
        result = _stored(dataset, store, learner=lambda: factory())
        assert store.counters["writes"] == 0
        assert store.counters["hits"] + store.counters["misses"] == 0
        _assert_trials_equal(_serial(dataset), result)


class TestSharedJournalIncremental:
    def test_campaign_shards_survive_grid_changes(self, tmp_path):
        """The FastFlip property: one store, campaign + trials; when
        only the grid changes, every campaign shard is reused."""
        store = CampaignStore(tmp_path / "store")
        campaign = run_grid_campaign().run(pool=SerialPool(), store=store)
        dataset = campaign.to_dataset("GT-ds")
        _stored(dataset, store)
        # Re-run the campaign against the shared store: all stored.
        again = run_grid_campaign().run(pool=SerialPool(), store=store)
        assert again.orchestration["executed"] == 0
        assert again.records == campaign.records
        # A different grid re-executes trials but no campaign shards.
        other = dataclasses.replace(GRID, neighbour_counts=(5,))
        _stored(dataset, store, grid=other)
        final = run_grid_campaign().run(pool=SerialPool(), store=store)
        assert final.orchestration["executed"] == 0


class TestFingerprints:
    def test_dataset_fingerprint_stable_and_sensitive(self, dataset):
        assert dataset_fingerprint(dataset) == dataset_fingerprint(dataset)
        other = run_grid_campaign(test_cases=(0, 2)).run().to_dataset("x")
        assert dataset_fingerprint(dataset) != dataset_fingerprint(other)

    def test_callable_tag_prefers_fingerprint(self):
        modules = code_modules()
        factory = LearnerFactory("c45")
        assert _callable_tag(factory, modules) == "learner:c45"
        assert _callable_tag(model_complexity, modules).endswith(
            "model_complexity"
        )
        assert _callable_tag(None, modules) is None
        # Outside the mining code nothing vouches for a callable's body.
        assert _callable_tag(lambda: None, modules) is None
