"""Stratified k-fold cross-validation (the paper's evaluation method).

Section VII-C: "the data was partitioned into 10 stratified samples,
then for each cross validation run, one of the partitions was used as
the test sample, whilst the other nine were used as the training set".
Tables III and IV report per-dataset *mean* FPR/TPR/AUC across the 10
folds plus the AUC *variance* (their ``Var`` column) and the mean tree
node count (their ``Comp`` column).

:func:`cross_validate` reproduces exactly that protocol, with two
methodology-critical details:

* any resampling/preprocessing is applied to the **training folds
  only** (resampling the test fold would leak synthetic instances and
  inflate the scores);
* fold assignment is stratified per class so the rare failure-inducing
  states appear in every test fold whenever there are at least k of
  them.

Fold-batched fitting: :func:`train_folds` builds the k training folds
first, in fold order, so the generator draws exactly the numbers a
fold-by-fold loop draws.  The folds' C4.5 trees are then grown together
by :func:`repro.mining.tree.fit_trees` -- each depth of all of them
settled at once -- and each comes out bit for bit as fitting its fold
alone would grow it.  Every other classifier, and any C4.5 subclass
that overrides ``fit``, is fitted in its own fold.  Each fold is then
predicted and scored on its own (:meth:`TrainedFolds.score`).  A Step 4
sweep (:func:`repro.core.refine.refine`) runs the two halves itself so
that the trees of many plans' cross-validations grow in one batch.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from repro import observability as obs
from repro.mining.base import Classifier
from repro.mining.dataset import Dataset
from repro.mining.metrics import ConfusionMatrix
from repro.mining.tree import C45DecisionTree, fit_trees

__all__ = [
    "FoldResult",
    "CrossValidationResult",
    "TrainedFolds",
    "stratified_folds",
    "cross_validate",
    "train_folds",
]

@dataclasses.dataclass
class FoldResult:
    """Evaluation of one fold: its confusion matrix and model complexity."""

    fold: int
    confusion: ConfusionMatrix
    complexity: float

    @property
    def tpr(self) -> float:
        return self.confusion.true_positive_rate()

    @property
    def fpr(self) -> float:
        return self.confusion.false_positive_rate()

    @property
    def auc(self) -> float:
        return self.confusion.auc()


@dataclasses.dataclass
class CrossValidationResult:
    """Aggregate of all folds, exposing the paper's table columns."""

    folds: list[FoldResult]

    @property
    def mean_tpr(self) -> float:
        return float(np.mean([f.tpr for f in self.folds]))

    @property
    def mean_fpr(self) -> float:
        return float(np.mean([f.fpr for f in self.folds]))

    @property
    def mean_auc(self) -> float:
        return float(np.mean([f.auc for f in self.folds]))

    @property
    def auc_variance(self) -> float:
        """Population variance of the per-fold AUC (the ``Var`` column)."""
        return float(np.var([f.auc for f in self.folds]))

    @property
    def mean_complexity(self) -> float:
        """Mean model size across folds (the ``Comp`` column)."""
        return float(np.mean([f.complexity for f in self.folds]))

    def pooled_confusion(self) -> ConfusionMatrix:
        """Sum of the per-fold confusion matrices."""
        pooled = self.folds[0].confusion
        for fold in self.folds[1:]:
            pooled = pooled + fold.confusion
        return pooled

    def summary(self) -> dict[str, float]:
        return {
            "fpr": self.mean_fpr,
            "tpr": self.mean_tpr,
            "auc": self.mean_auc,
            "comp": self.mean_complexity,
            "var": self.auc_variance,
        }


def stratified_folds(
    dataset: Dataset, k: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Partition instance indices into ``k`` stratified folds.

    Within each class the (shuffled) instances are dealt round-robin to
    the folds, so fold class proportions match the dataset's as closely
    as integer counts allow.
    """
    if k < 2:
        raise ValueError("cross-validation needs at least 2 folds")
    if len(dataset) < k:
        raise ValueError(
            f"cannot make {k} folds from {len(dataset)} instances"
        )
    # Deal each class's shuffled members to folds offset, offset + 1,
    # ...; the offset carries over from class to class so small classes
    # do not all land in fold 0.
    assign = np.full(len(dataset), -1, dtype=np.int64)
    offset = 0
    for cls in range(dataset.n_classes):
        members = np.flatnonzero(dataset.y == cls)
        members = members[rng.permutation(len(members))]
        assign[members] = (offset + np.arange(len(members))) % k
        offset += len(members)
    return [np.flatnonzero(assign == fold) for fold in range(k)]


def cross_validate(
    dataset: Dataset,
    make_classifier: Callable[[], Classifier],
    k: int = 10,
    rng: np.random.Generator | None = None,
    preprocess: Callable[[Dataset, np.random.Generator], Dataset] | None = None,
    complexity: Callable[[Classifier], float] | None = None,
    positive: int = 1,
) -> CrossValidationResult:
    """Run stratified k-fold cross-validation.

    Parameters
    ----------
    make_classifier:
        Zero-argument factory producing a fresh classifier per fold.
    preprocess:
        Optional training-folds-only transformation (e.g. resampling);
        receives the training dataset and a fold-specific RNG.
    complexity:
        Optional model-size accessor (defaults to ``node_count`` when
        the classifier exposes one, else 0).
    positive:
        Class index considered positive (failure-inducing) for the
        confusion matrices.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    with obs.span("crossval", k=k, instances=len(dataset)):
        # Warm the column presort once; the k order-preserving training
        # subsets below derive their sort orders from it instead of
        # re-sorting (see Dataset.presort).
        dataset.presort()
        folds = train_folds(dataset, make_classifier, k, rng, preprocess)
        if folds.trees:
            fit_trees(folds.trees, folds.tree_sets)
        return folds.score(dataset, complexity, positive)


@dataclasses.dataclass
class TrainedFolds:
    """A cross-validation's folds with every model built: the test
    indices and model of each fold, in fold order.  ``trees`` are the
    folds' C4.5 trees, still to be fitted on ``tree_sets`` (one
    :func:`repro.mining.tree.fit_trees` call may grow them together
    with other cross-validations' trees); every other model is fitted.
    """

    test_indices: list[np.ndarray]
    models: list[Classifier]
    trees: list[C45DecisionTree]
    tree_sets: list[Dataset]

    @property
    def held_cells(self) -> int:
        """Training cells (rows x attributes) held for the unfitted trees."""
        return sum(train.x.size for train in self.tree_sets)

    def score(
        self,
        dataset: Dataset,
        complexity: Callable[[Classifier], float] | None = None,
        positive: int = 1,
    ) -> CrossValidationResult:
        """Predict and score every fold once its trees are fitted."""
        results: list[FoldResult] = []
        for fold, (test_idx, model) in enumerate(zip(self.test_indices, self.models)):
            with obs.span("crossval.fold", fold=fold, phase="score"):
                test = dataset.subset(test_idx)
                predicted = (
                    model.predict(test.x) if len(test) else np.empty(0, dtype=int)
                )
                confusion = ConfusionMatrix.from_predictions(
                    test.y,
                    predicted,
                    dataset.class_attribute.values,
                    weights=test.weights,
                    positive=positive,
                )
                if complexity is not None:
                    size = complexity(model)
                else:
                    size = float(getattr(model, "node_count", 0.0))
                results.append(FoldResult(fold, confusion, size))
        return CrossValidationResult(results)


def train_folds(
    dataset: Dataset,
    make_classifier: Callable[[], Classifier],
    k: int,
    rng: np.random.Generator,
    preprocess: Callable[[Dataset, np.random.Generator], Dataset] | None = None,
) -> TrainedFolds:
    """The first half of :func:`cross_validate`: every fold's training
    set and model, in fold order, so the generator draws exactly as a
    fold-by-fold loop would.  Models whose ``fit`` is C4.5's own are
    left unfitted for :func:`repro.mining.tree.fit_trees`; the oracle
    ``ReferenceC45DecisionTree`` and every other classifier are fitted
    in their fold."""
    test_indices = stratified_folds(dataset, k, rng)
    all_indices = np.arange(len(dataset))
    folds = TrainedFolds(test_indices, [], [], [])
    for fold, test_idx in enumerate(test_indices):
        with obs.span("crossval.fold", fold=fold, phase="train"):
            train_mask = np.ones(len(dataset), dtype=bool)
            train_mask[test_idx] = False
            train = dataset.subset(all_indices[train_mask])
            if preprocess is not None:
                train = preprocess(
                    train, np.random.default_rng(rng.integers(2**63))
                )
            model = make_classifier()
            if type(model).fit is C45DecisionTree.fit:
                folds.trees.append(model)
                folds.tree_sets.append(train)
            else:
                model.fit(train)
            folds.models.append(model)
    return folds
