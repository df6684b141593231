"""Step 2: algorithm selection and preprocessing.

Section V-C lists three preprocessing aims: (1) transform the data
format for analysis, (2) address the class imbalance of fault
injection data, (3) apply learner-specific attribute transformations.
A :class:`PreprocessingPlan` captures (2) and (3) as a reusable,
serialisable recipe that the cross-validation harness applies to
training folds only; format transformation (1) is the
log -> dataset -> ARFF chain re-exported here for convenience.

The learner registry also lives here, because "the data preprocessing
that needs to be performed before learning is based upon the chosen
learning algorithm": plans carry the transform list appropriate for
their learner (e.g. the signed log mapping for Naive Bayes and
logistic regression).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from repro.mining.bagging import Bagging
from repro.mining.base import Classifier
from repro.mining.bayes import NaiveBayes
from repro.mining.boosting import AdaBoostM1
from repro.mining.dataset import Dataset
from repro.mining.logistic import LogisticRegression
from repro.mining.knn import KNNClassifier
from repro.mining.oner import OneR
from repro.mining.rules import Prism, SequentialCoveringRules
from repro.mining.sampling import apply_sampling
from repro.mining.transforms import SignedLogTransform, StandardiseTransform
from repro.mining.tree import C45DecisionTree

__all__ = [
    "LEARNERS",
    "LearnerFactory",
    "PreprocessingPlan",
    "default_plan_for",
    "make_learner",
    "model_complexity",
]

#: Registry of learner factories by name.  Symbolic learners (the ones
#: the methodology extracts predicates from) are marked.
LEARNERS: dict[str, tuple[Callable[[], Classifier], bool]] = {
    "c45": (C45DecisionTree, True),
    "rules": (SequentialCoveringRules, True),
    "prism": (Prism, True),
    "naive-bayes": (NaiveBayes, False),
    "logistic": (LogisticRegression, False),
    "knn": (KNNClassifier, False),
    "adaboost": (AdaBoostM1, False),
    "bagging": (Bagging, False),
    "oner": (OneR, False),
}


def make_learner(name: str) -> Classifier:
    """Instantiate a registered learner by name."""
    try:
        factory, _ = LEARNERS[name]
    except KeyError:
        raise ValueError(
            f"unknown learner {name!r}; available: {sorted(LEARNERS)}"
        ) from None
    return factory()


@dataclasses.dataclass(frozen=True)
class LearnerFactory:
    """A picklable zero-argument classifier factory.

    Equivalent to ``lambda: make_learner(name)`` but able to cross a
    process boundary (lambdas cannot), so methodology steps can hand
    it to a :class:`repro.orchestration.ProcessPool`.  The
    ``fingerprint`` names the learner stably in refinement-trial store
    keys.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in LEARNERS:
            raise ValueError(
                f"unknown learner {self.name!r}; available: {sorted(LEARNERS)}"
            )

    def __call__(self) -> Classifier:
        return make_learner(self.name)

    @property
    def fingerprint(self) -> str:
        return f"learner:{self.name}"


def model_complexity(model: Classifier) -> float:
    """Model size: tree node count / rule condition count / 0."""
    for attribute in ("node_count", "condition_count"):
        value = getattr(model, attribute, None)
        if value is not None:
            return float(value)
    return 0.0


@dataclasses.dataclass(frozen=True)
class PreprocessingPlan:
    """A Step 2 recipe: imbalance treatment + attribute transforms.

    Parameters
    ----------
    sampling:
        ``None``, ``"undersample"``, ``"oversample"`` or ``"smote"``.
    level:
        Sampling percentage: majority retained for undersampling (the
        paper's range [5, 100]), minority added for over/SMOTE (the
        paper's range [100, 1500]).
    neighbours:
        SMOTE's k (paper range [1, 15]); ``None`` for the others.
    signed_log / standardise:
        Attribute transformations (Section V-C's g(x) and scaling).
    cost_ratio:
        Optional cost-sensitive alternative to resampling: weight the
        positive (failure-inducing) class ``cost_ratio`` times a
        negative instance via Ting's instance-weighting formula
        (Section IV).  May be combined with resampling, though the
        paper treats them as alternatives.
    """

    sampling: str | None = None
    level: float | None = None
    neighbours: int | None = None
    signed_log: bool = False
    standardise: bool = False
    cost_ratio: float | None = None

    def __post_init__(self) -> None:
        if self.cost_ratio is not None and self.cost_ratio <= 0:
            raise ValueError("cost_ratio must be positive")

    def describe(self) -> str:
        """The Table IV style 'S' / 'N' description of the plan."""
        parts: list[str] = []
        if self.sampling is not None:
            tag = {"undersample": "U", "oversample": "O", "smote": "O"}[
                self.sampling
            ]
            text = f"{self.level:g}({tag})"
            if self.neighbours is not None:
                text += f" N={self.neighbours}"
            parts.append(text)
        if self.cost_ratio is not None:
            parts.append(f"cost={self.cost_ratio:g}")
        if self.signed_log:
            parts.append("log")
        if self.standardise:
            parts.append("std")
        return " ".join(parts) if parts else "-"

    def apply(self, dataset: Dataset, rng: np.random.Generator) -> Dataset:
        """Apply the plan (transforms, then weighting, then resampling).

        Must only ever be applied to *training* data; the
        cross-validation harness guarantees this.
        """
        out = dataset
        if self.signed_log:
            out = SignedLogTransform().fit(out).apply(out)
        if self.standardise:
            out = StandardiseTransform().fit(out).apply(out)
        if self.cost_ratio is not None:
            from repro.mining.metrics import ting_instance_weights

            weights = ting_instance_weights(
                out.y, np.array([1.0, self.cost_ratio])
            )
            out = out.with_weights(out.weights * weights)
        out = apply_sampling(out, self.sampling, self.level, self.neighbours, rng)
        return out


def default_plan_for(learner: str) -> PreprocessingPlan:
    """Baseline plan for a learner (Section VII-B: "no technique was
    employed to enhance the learning algorithm", except the log
    mapping the paper prescribes for the distribution-sensitive
    learners)."""
    if learner in ("naive-bayes", "logistic"):
        return PreprocessingPlan(signed_log=True, standardise=learner == "logistic")
    return PreprocessingPlan()
