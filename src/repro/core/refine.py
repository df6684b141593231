"""Step 4: model refinement and optimisation.

"A total of 10 undersampling and 15 oversampling percentage levels
were used in model refinement.  These levels were distributed over the
range [5,100] and [100,1500] for undersampling and oversampling
respectively.  The number of nearest neighbours considered were
distributed over the range [1,15]" (Section VII-D).

:class:`RefinementGrid` enumerates those preprocessing plans (plain
oversampling-with-replacement is SMOTE's q=0 case and appears in
Table IV as entries without an N value, so the grid includes it), and
:func:`refine` evaluates each with stratified cross-validation,
keeping the plan with the best mean AUC -- ties broken towards higher
TPR, then smaller trees.

Alongside the data-level sweep, :func:`refine_predicate` is the
*model-level* half of Step 4: after extraction, the mined predicate is
rewritten to its provably-equivalent canonical form by the static
checker (:mod:`repro.analysis.simplify`) -- fewer atoms means a
cheaper runtime assertion with identical completeness and accuracy,
a refinement that costs no additional cross-validation.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterator

import numpy as np

from repro import observability as obs
from repro.core.preprocess import PreprocessingPlan
from repro.mining.base import Classifier
from repro.mining.crossval import CrossValidationResult, TrainedFolds, train_folds
from repro.mining.dataset import Dataset
from repro.mining.tree import fit_trees

__all__ = [
    "RefinementGrid",
    "RefinementTrial",
    "RefinementResult",
    "refine",
    "refine_predicate",
]

#: The paper's sweep (Section VII-D).
PAPER_UNDERSAMPLE_LEVELS = (5.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0, 100.0)
PAPER_OVERSAMPLE_LEVELS = tuple(float(v) for v in range(100, 1501, 100))
PAPER_NEIGHBOUR_COUNTS = tuple(range(1, 16))

#: Training cells (rows x attributes) the serial sweep holds at once:
#: plans join one batch of fold trees (one ``fit_trees`` call) while
#: their training folds' cells stay under this.  A batch's peak memory
#: grows with its cells -- the held folds plus the grower's per-level
#: arrays, 86-115 bytes a cell on 9- and 25-attribute datasets -- so a
#: full batch peaks about 30 MiB above the sweep's own footprint.  A plan
#: larger than the bound is a batch of its own, as its cross-validation
#: alone would be.  Every smoke-scale grid (at most 80,440 cells) is one
#: batch.
_BATCH_CELLS = 1 << 18


@dataclasses.dataclass(frozen=True)
class RefinementGrid:
    """The Step 4 search space over preprocessing plans."""

    undersample_levels: tuple[float, ...] = PAPER_UNDERSAMPLE_LEVELS
    oversample_levels: tuple[float, ...] = PAPER_OVERSAMPLE_LEVELS
    neighbour_counts: tuple[int, ...] = PAPER_NEIGHBOUR_COUNTS
    include_plain_oversample: bool = True
    base_plan: PreprocessingPlan = PreprocessingPlan()

    @classmethod
    def paper(cls) -> "RefinementGrid":
        """The full grid of Section VII-D (10 + 15 + 15x15 plans)."""
        return cls()

    @classmethod
    def reduced(cls) -> "RefinementGrid":
        """A laptop-scale grid preserving the sweep's structure."""
        return cls(
            undersample_levels=(5.0, 25.0, 50.0, 85.0),
            oversample_levels=(100.0, 300.0, 700.0, 1200.0),
            neighbour_counts=(1, 5, 11),
        )

    def plans(self) -> Iterator[PreprocessingPlan]:
        """Enumerate every candidate plan (transforms inherited from
        the base plan so learner-specific mappings persist)."""
        base = self.base_plan
        for level in self.undersample_levels:
            yield dataclasses.replace(
                base, sampling="undersample", level=level, neighbours=None
            )
        for level in self.oversample_levels:
            if self.include_plain_oversample:
                yield dataclasses.replace(
                    base, sampling="oversample", level=level, neighbours=None
                )
            for k in self.neighbour_counts:
                yield dataclasses.replace(
                    base, sampling="smote", level=level, neighbours=k
                )

    def size(self) -> int:
        n_over = len(self.oversample_levels) * (
            len(self.neighbour_counts) + (1 if self.include_plain_oversample else 0)
        )
        return len(self.undersample_levels) + n_over


@dataclasses.dataclass
class RefinementTrial:
    """One evaluated plan."""

    plan: PreprocessingPlan
    evaluation: CrossValidationResult

    @property
    def key(self) -> tuple[float, float, float]:
        """Selection key: AUC, then TPR, then smaller complexity."""
        return (
            self.evaluation.mean_auc,
            self.evaluation.mean_tpr,
            -self.evaluation.mean_complexity,
        )


@dataclasses.dataclass
class RefinementResult:
    """Outcome of the grid search."""

    trials: list[RefinementTrial]
    best: RefinementTrial

    def ranked(self) -> list[RefinementTrial]:
        return sorted(self.trials, key=lambda t: t.key, reverse=True)


def refine(
    dataset: Dataset,
    make_classifier: Callable[[], Classifier],
    grid: RefinementGrid,
    folds: int = 10,
    seed: int = 0,
    complexity: Callable[[Classifier], float] | None = None,
    positive: int = 1,
    pool=None,
    store=None,
) -> RefinementResult:
    """Evaluate every plan in the grid and return the trials + winner.

    Each plan gets its own deterministic RNG stream (derived from
    ``seed`` and the plan index) so results are reproducible and
    independent of grid ordering; resampling is applied to training
    folds only, inside the cross-validation.

    ``pool`` (a :class:`repro.orchestration.WorkerPool`) evaluates the
    trials in parallel and ``store`` (a
    :class:`repro.injection.store.CampaignStore`) keeps them; both paths
    produce bit-identical results to the serial loop because every
    trial's RNG is already derived from its own (seed, index) identity.
    A :func:`repro.orchestration.configure`-d default pool is picked up
    automatically when the arguments can cross a process boundary.
    """
    if pool is None and store is None:
        from repro.orchestration.pool import default_pool, picklable

        if picklable((dataset, make_classifier, complexity)):
            pool = default_pool()
            if pool is not None:
                try:
                    return refine(
                        dataset, make_classifier, grid, folds, seed,
                        complexity, positive, pool=pool,
                    )
                finally:
                    pool.close()
    if pool is not None or store is not None:
        from repro.orchestration.grids import run_refinement

        return run_refinement(
            dataset,
            make_classifier,
            grid,
            folds=folds,
            seed=seed,
            complexity=complexity,
            positive=positive,
            pool=pool,
            store=store,
        )
    # Warm the column presort once for the whole sweep: every trial's
    # training folds are order-preserving subsets and derive their sort
    # orders from this one set; a resampled fold sorts its own.
    dataset.presort()
    trials: list[RefinementTrial] = []
    with obs.span("refine.sweep", plans=grid.size(), folds=folds):
        # Each plan's folds are built with its own generator, in grid
        # order; the fold trees of consecutive plans then grow together
        # (one fit_trees call per batch), and each plan is scored.
        batch: list[tuple[int, PreprocessingPlan, TrainedFolds]] = []
        held = 0
        for index, plan in enumerate(grid.plans()):
            rng = np.random.default_rng((seed, index))
            with obs.span(
                "refine.trial", index=index, plan=plan.describe(), phase="train"
            ):
                trained = train_folds(dataset, make_classifier, folds, rng, plan.apply)
            if batch and held + trained.held_cells > _BATCH_CELLS:
                trials.extend(_score_batch(dataset, batch, complexity, positive))
                batch, held = [], 0
            batch.append((index, plan, trained))
            held += trained.held_cells
            if not trained.trees:
                # Fitted in its folds already (any learner but C4.5):
                # nothing to grow together, so score it at once rather
                # than hold its models.
                trials.extend(_score_batch(dataset, batch, complexity, positive))
                batch, held = [], 0
        trials.extend(_score_batch(dataset, batch, complexity, positive))
    if not trials:
        raise ValueError("refinement grid is empty")
    best = max(trials, key=lambda t: t.key)
    return RefinementResult(trials, best)


def _score_batch(
    dataset: Dataset,
    batch: list[tuple[int, PreprocessingPlan, TrainedFolds]],
    complexity: Callable[[Classifier], float] | None,
    positive: int,
) -> list[RefinementTrial]:
    """Grow the batch's fold trees together, then score each plan."""
    trees = [tree for _, _, trained in batch for tree in trained.trees]
    if trees:
        fit_trees(
            trees, [train for _, _, trained in batch for train in trained.tree_sets]
        )
    trials = []
    for index, plan, trained in batch:
        with obs.span(
            "refine.trial", index=index, plan=plan.describe(), phase="score"
        ):
            evaluation = trained.score(dataset, complexity, positive)
        trials.append(RefinementTrial(plan, evaluation))
    return trials


def refine_predicate(predicate):
    """Model-level refinement: canonicalise an extracted predicate.

    Returns the :class:`repro.analysis.simplify.SimplificationResult`
    whose ``simplified`` predicate is provably equivalent to the input
    on every state (missing and NaN variables included) and carries
    the checker's clause verdicts -- an unsatisfiable or vacuous
    clause surfacing here means the mined model memorised an artefact
    of the campaign rather than a property of the module.
    """
    # Imported lazily: repro.core is a parent package of the predicate
    # algebra the analysis package builds on, so the import lives here
    # rather than at module scope.
    from repro.analysis.simplify import simplify_predicate

    return simplify_predicate(predicate)
