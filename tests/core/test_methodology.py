"""Tests for the four-step methodology pipeline and refinement."""

import dataclasses

import numpy as np
import pytest

from repro.core.methodology import Methodology, MethodologyConfig
from repro.core.preprocess import (
    LEARNERS,
    PreprocessingPlan,
    default_plan_for,
    make_learner,
    model_complexity,
)
from repro.core.refine import RefinementGrid, refine
from repro.mining.tree import C45DecisionTree
from repro.orchestration import ProcessPool
from tests.conftest import make_imbalanced, make_separable

SMALL_GRID = RefinementGrid(
    undersample_levels=(25.0, 75.0),
    oversample_levels=(200.0,),
    neighbour_counts=(3,),
)


class TestConfig:
    def test_defaults(self):
        config = MethodologyConfig()
        assert config.learner == "c45"
        assert config.folds == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            MethodologyConfig(learner="xgboost")
        with pytest.raises(ValueError):
            MethodologyConfig(folds=1)


class TestPreprocessRegistry:
    def test_all_learners_instantiate(self):
        for name in LEARNERS:
            model = make_learner(name)
            assert hasattr(model, "fit")

    def test_unknown_learner(self):
        with pytest.raises(ValueError):
            make_learner("bogus")

    def test_model_complexity(self):
        ds = make_separable()
        tree = C45DecisionTree().fit(ds)
        assert model_complexity(tree) == tree.node_count
        assert model_complexity(make_learner("naive-bayes").fit(ds)) == 0.0

    def test_default_plans(self):
        assert default_plan_for("c45") == PreprocessingPlan()
        assert default_plan_for("naive-bayes").signed_log
        assert default_plan_for("logistic").standardise

    def test_plan_describe(self):
        assert PreprocessingPlan().describe() == "-"
        plan = PreprocessingPlan(sampling="smote", level=300, neighbours=4)
        assert "300(O)" in plan.describe() and "N=4" in plan.describe()
        plan = PreprocessingPlan(sampling="undersample", level=85)
        assert "85(U)" in plan.describe()

    def test_plan_apply_transforms_then_samples(self, rng):
        ds = make_imbalanced()
        plan = PreprocessingPlan(
            sampling="oversample", level=200, signed_log=True
        )
        out = plan.apply(ds, rng)
        assert len(out) > len(ds)
        # signed log compresses the positive cluster's values below raw.
        assert np.nanmax(out.x) < np.nanmax(ds.x) + 1e-9


class TestStep3:
    def test_report_contents(self):
        ds = make_separable()
        method = Methodology(MethodologyConfig(folds=5))
        report = method.step3_generate(ds)
        assert report.is_symbolic
        assert report.predicate is not None
        assert set(report.summary()) == {"fpr", "tpr", "auc", "comp", "var"}
        assert report.summary()["auc"] > 0.9

    def test_detector_from_report(self):
        ds = make_separable()
        report = Methodology(MethodologyConfig(folds=5)).step3_generate(ds)
        detector = report.detector(name="d")
        eff = detector.efficiency_on(ds)
        assert eff.completeness > 0.9

    def test_non_symbolic_learner_has_no_predicate(self):
        ds = make_separable()
        method = Methodology(MethodologyConfig(learner="naive-bayes", folds=5))
        report = method.step3_generate(ds)
        assert not report.is_symbolic
        with pytest.raises(ValueError):
            report.detector()

    def test_rules_learner_extracts_predicate(self):
        ds = make_separable()
        method = Methodology(MethodologyConfig(learner="rules", folds=5))
        report = method.step3_generate(ds)
        assert report.is_symbolic

    def test_deterministic(self):
        ds = make_separable()
        method = Methodology(MethodologyConfig(folds=5, seed=11))
        assert (
            method.step3_generate(ds).summary()
            == method.step3_generate(ds).summary()
        )


class TestRefinementGrid:
    def test_paper_grid_size(self):
        grid = RefinementGrid.paper()
        # 10 undersampling + 15 levels x (1 replacement + 15 k values)
        assert grid.size() == 10 + 15 * 16
        assert grid.size() == len(list(grid.plans()))

    def test_reduced_grid_enumerates(self):
        grid = RefinementGrid.reduced()
        plans = list(grid.plans())
        assert len(plans) == grid.size()
        kinds = {p.sampling for p in plans}
        assert kinds == {"undersample", "oversample", "smote"}

    def test_base_plan_inherited(self):
        base = PreprocessingPlan(signed_log=True)
        grid = dataclasses.replace(SMALL_GRID, base_plan=base)
        assert all(p.signed_log for p in grid.plans())


class TestStep4:
    def test_refine_returns_best(self):
        ds = make_imbalanced()
        result = refine(ds, C45DecisionTree, SMALL_GRID, folds=5)
        assert result.best in result.trials
        assert result.best.key == max(t.key for t in result.trials)

    def test_ranked_order(self):
        ds = make_imbalanced()
        result = refine(ds, C45DecisionTree, SMALL_GRID, folds=5)
        ranked = result.ranked()
        assert ranked[0] is result.best
        keys = [t.key for t in ranked]
        assert keys == sorted(keys, reverse=True)

    def test_empty_grid_rejected(self):
        ds = make_imbalanced()
        empty = RefinementGrid(
            undersample_levels=(), oversample_levels=(), neighbour_counts=()
        )
        with pytest.raises(ValueError):
            refine(ds, C45DecisionTree, empty, folds=5)

    def test_deterministic(self):
        ds = make_imbalanced()
        a = refine(ds, C45DecisionTree, SMALL_GRID, folds=5, seed=3)
        b = refine(ds, C45DecisionTree, SMALL_GRID, folds=5, seed=3)
        assert a.best.plan == b.best.plan
        assert a.best.evaluation.summary() == b.best.evaluation.summary()


class TestEndToEnd:
    def test_run_improves_or_keeps_baseline(self):
        ds = make_imbalanced(n=400)
        method = Methodology(MethodologyConfig(folds=5))
        outcome = method.run(ds, SMALL_GRID)
        assert outcome.improved
        assert (
            outcome.refined.evaluation.mean_auc
            >= outcome.baseline.evaluation.mean_auc
        )

    def test_outcome_carries_trials(self):
        ds = make_imbalanced(n=300)
        method = Methodology(MethodologyConfig(folds=5))
        outcome = method.run(ds, SMALL_GRID)
        assert len(outcome.refinement.trials) == SMALL_GRID.size()
        assert outcome.dataset_name == ds.name

    def test_run_jobs_matches_serial(self):
        ds = make_imbalanced(n=300)
        config = MethodologyConfig(folds=5, seed=7)
        serial = Methodology(config).run(ds, SMALL_GRID)
        with ProcessPool(2) as pool:
            pooled = Methodology(config).run(ds, SMALL_GRID, pool=pool)
        assert pooled.baseline.summary() == serial.baseline.summary()
        assert pooled.refined.plan == serial.refined.plan
        assert (
            pooled.refined.evaluation.summary()
            == serial.refined.evaluation.summary()
        )
        for a, b in zip(pooled.refinement.trials, serial.refinement.trials):
            assert a.plan == b.plan
            assert a.evaluation.summary() == b.evaluation.summary()
