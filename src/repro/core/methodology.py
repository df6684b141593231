"""The four-step methodology (Figure 1 of the paper).

:class:`Methodology` drives the pipeline end-to-end:

* :meth:`Methodology.step1_inject` -- run a fault injection campaign
  on a target system (delegates to :mod:`repro.injection`);
* :meth:`Methodology.step2_preprocess` -- apply a
  :class:`~repro.core.preprocess.PreprocessingPlan` (format
  transformation is implicit in ``CampaignResult.to_dataset``);
* :meth:`Methodology.step3_generate` -- induce and cross-validate the
  baseline model, extracting its detection predicate;
* :meth:`Methodology.step4_refine` -- grid-search sampling parameters
  for the most effective predicate.

:meth:`Methodology.run` chains steps 2-4 on an injection dataset and
returns a :class:`MethodologyOutcome` holding the baseline and refined
:class:`ModelReport` -- each carrying the Table III/IV row (FPR, TPR,
AUC, Comp, Var), the fitted model, and the extracted predicate ready
to wrap in a :class:`repro.core.detector.Detector`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import observability as obs
from repro.core.detector import Detector
from repro.core.extraction import ruleset_to_predicate, tree_to_predicate
from repro.core.predicate import Predicate
from repro.core.preprocess import (
    LEARNERS,
    LearnerFactory,
    PreprocessingPlan,
    default_plan_for,
    make_learner,
    model_complexity,
)
from repro.core.refine import RefinementGrid, RefinementResult, refine
from repro.injection.campaign import Campaign, CampaignConfig, CampaignResult
from repro.mining.base import Classifier
from repro.mining.crossval import CrossValidationResult, cross_validate
from repro.mining.dataset import Dataset
from repro.mining.rules.covering import SequentialCoveringRules
from repro.mining.rules.prism import Prism
from repro.mining.tree.induction import C45DecisionTree

__all__ = [
    "MethodologyConfig",
    "ModelReport",
    "MethodologyOutcome",
    "Methodology",
]


@dataclasses.dataclass(frozen=True)
class MethodologyConfig:
    """Methodology-wide settings.

    ``learner`` must be a symbolic learner for predicate extraction to
    succeed ("we focus on evaluating symbolic pattern learning
    algorithms ... as their outputs can be represented as first-order
    predicates"); non-symbolic learners are allowed for the ablation
    comparisons but yield reports without predicates.
    """

    learner: str = "c45"
    folds: int = 10
    seed: int = 0
    positive: int = 1

    def __post_init__(self) -> None:
        if self.learner not in LEARNERS:
            raise ValueError(
                f"unknown learner {self.learner!r}; available: {sorted(LEARNERS)}"
            )
        if self.folds < 2:
            raise ValueError("cross-validation needs at least 2 folds")


@dataclasses.dataclass
class ModelReport:
    """One evaluated (plan, model) pair: a row of Table III or IV."""

    learner: str
    plan: PreprocessingPlan
    evaluation: CrossValidationResult
    model: Classifier
    predicate: Predicate | None

    def summary(self) -> dict[str, float]:
        """The table columns: FPR, TPR, AUC, Comp, Var."""
        return self.evaluation.summary()

    @property
    def is_symbolic(self) -> bool:
        return self.predicate is not None

    def detector(self, location=None, name: str = "detector") -> Detector:
        if self.predicate is None:
            raise ValueError(
                f"learner {self.learner!r} is not symbolic; no predicate "
                "to install as a detector"
            )
        return Detector(self.predicate, location=location, name=name)


@dataclasses.dataclass
class MethodologyOutcome:
    """Result of running steps 2-4 on one injection dataset."""

    dataset_name: str
    baseline: ModelReport
    refined: ModelReport
    refinement: RefinementResult

    @property
    def improved(self) -> bool:
        """Did refinement improve on the baseline's mean AUC?"""
        return (
            self.refined.evaluation.mean_auc
            >= self.baseline.evaluation.mean_auc
        )


class Methodology:
    """The end-to-end methodology for generating efficient detectors."""

    def __init__(self, config: MethodologyConfig | None = None) -> None:
        self.config = config or MethodologyConfig()

    # ------------------------------------------------------------------
    # Step 1
    # ------------------------------------------------------------------
    def step1_inject(
        self,
        target,
        campaign_config: CampaignConfig,
        pool=None,
        store=None,
    ) -> CampaignResult:
        """Run the fault injection campaign (Section V-B).

        ``pool``/``store`` (see :mod:`repro.orchestration` and
        :mod:`repro.injection.store`) run the campaign sharded in
        parallel and stored; the result is bit-identical to the serial
        campaign.
        """
        with obs.span("phase.campaign", target=target.name):
            return Campaign(target, campaign_config).run(pool=pool, store=store)

    # ------------------------------------------------------------------
    # Step 2
    # ------------------------------------------------------------------
    def step2_preprocess(
        self,
        dataset: Dataset,
        plan: PreprocessingPlan | None = None,
        rng: np.random.Generator | None = None,
    ) -> Dataset:
        """Apply a preprocessing plan (Section V-C).

        Note that in the evaluation pipeline the plan is re-applied to
        the training folds inside cross-validation; this method exists
        for the final full-data fit and for standalone use.
        """
        plan = plan if plan is not None else self.default_plan()
        rng = rng or np.random.default_rng(self.config.seed)
        return plan.apply(dataset, rng)

    def default_plan(self) -> PreprocessingPlan:
        return default_plan_for(self.config.learner)

    # ------------------------------------------------------------------
    # Step 3
    # ------------------------------------------------------------------
    def step3_generate(
        self, dataset: Dataset, plan: PreprocessingPlan | None = None
    ) -> ModelReport:
        """Induce, cross-validate and extract the baseline predicate."""
        plan = plan if plan is not None else self.default_plan()
        evaluation = cross_validate(
            dataset,
            LearnerFactory(self.config.learner),
            k=self.config.folds,
            rng=np.random.default_rng(self.config.seed),
            preprocess=plan.apply,
            complexity=model_complexity,
            positive=self.config.positive,
        )
        return self._final_report(dataset, plan, evaluation)

    # ------------------------------------------------------------------
    # Step 4
    # ------------------------------------------------------------------
    def step4_refine(
        self,
        dataset: Dataset,
        grid: RefinementGrid | None = None,
        pool=None,
        store=None,
    ) -> RefinementResult:
        """Search sampling parameters for the most effective predicate.

        The grid trials are independent; ``pool`` evaluates them in
        parallel and ``store`` keeps them (see
        :mod:`repro.orchestration`) with bit-identical results.
        """
        grid = grid if grid is not None else RefinementGrid.paper()
        grid = dataclasses.replace(grid, base_plan=self.default_plan())
        return refine(
            dataset,
            LearnerFactory(self.config.learner),
            grid,
            folds=self.config.folds,
            seed=self.config.seed,
            complexity=model_complexity,
            positive=self.config.positive,
            pool=pool,
            store=store,
        )

    # ------------------------------------------------------------------
    # End-to-end
    # ------------------------------------------------------------------
    def run(
        self,
        dataset: Dataset,
        grid: RefinementGrid | None = None,
        pool=None,
        store=None,
    ) -> MethodologyOutcome:
        """Steps 2-4 on an injection dataset.

        ``pool`` (a :class:`repro.orchestration.WorkerPool`, owned by
        the caller, who may share it with :meth:`step1_inject`) runs
        the Step 4 grid search; ``store`` (a
        :class:`repro.injection.store.CampaignStore`) keeps the trials
        for reuse and resumption.  Without either, :func:`refine` runs
        the grid serially, or on the
        :func:`repro.orchestration.configure`-d default pool.
        """
        with obs.span(
            "methodology.run", dataset=dataset.name, learner=self.config.learner
        ):
            with obs.span("phase.baseline"):
                baseline = self.step3_generate(dataset)
            with obs.span("phase.refine"):
                refinement = self.step4_refine(
                    dataset, grid, pool=pool, store=store
                )
            with obs.span("phase.finalize"):
                best = refinement.best
                # The refined candidate must actually beat the baseline
                # to be adopted; the paper reports the improved model in
                # Table IV.
                if best.evaluation.mean_auc >= baseline.evaluation.mean_auc:
                    refined = self._final_report(
                        dataset, best.plan, best.evaluation
                    )
                else:
                    refined = baseline
        return MethodologyOutcome(dataset.name, baseline, refined, refinement)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _final_report(
        self,
        dataset: Dataset,
        plan: PreprocessingPlan,
        evaluation: CrossValidationResult,
    ) -> ModelReport:
        """Fit on the full (preprocessed) data and extract the predicate."""
        rng = np.random.default_rng((self.config.seed, 0xF1A7))
        prepared = plan.apply(dataset, rng)
        model = make_learner(self.config.learner).fit(prepared)
        predicate = self._extract_predicate(model, dataset)
        return ModelReport(self.config.learner, plan, evaluation, model, predicate)

    def _extract_predicate(
        self, model: Classifier, dataset: Dataset
    ) -> Predicate | None:
        positive = self.config.positive
        if isinstance(model, C45DecisionTree):
            assert model.root is not None
            return tree_to_predicate(
                model.root, dataset.class_attribute.values, positive
            )
        if isinstance(model, (SequentialCoveringRules, Prism)):
            assert model.ruleset is not None
            return ruleset_to_predicate(model.ruleset, positive)
        return None
