"""Ablation A-2: learner choice and the log-mapping interaction.

The paper chooses symbolic learners because their output converts to
first-order predicates, and prescribes the signed log mapping g(x) for
distribution-sensitive learners (Naive Bayes, logistic regression) on
the extreme magnitudes bit flips produce.  This ablation
cross-validates every registered learner on each dataset -- the
distribution-sensitive ones both with and without g(x) -- reporting
AUC/TPR/FPR.

Expected shape: the symbolic learners (C4.5, rules, PRISM) are
competitive with or better than the rest (justifying the paper's
choice: predicates come for free), and the log mapping helps Naive
Bayes / logistic regression noticeably (thresholds on raw magnitudes
spanning 1e300 defeat their likelihoods).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.preprocess import PreprocessingPlan, make_learner, model_complexity
from repro.experiments.datasets import generate_dataset
from repro.experiments.reporting import fmt_rate, fmt_sci, render_table
from repro.experiments.scale import Scale, get_scale
from repro.mining.crossval import cross_validate

__all__ = ["CONFIGS", "LearnerRow", "run", "main"]

#: (label, learner name, plan)
CONFIGS: list[tuple[str, str, PreprocessingPlan]] = [
    ("c45", "c45", PreprocessingPlan()),
    ("rules", "rules", PreprocessingPlan()),
    ("prism", "prism", PreprocessingPlan()),
    ("naive-bayes(raw)", "naive-bayes", PreprocessingPlan()),
    ("naive-bayes(log)", "naive-bayes", PreprocessingPlan(signed_log=True)),
    ("logistic(raw)", "logistic", PreprocessingPlan(standardise=True)),
    (
        "logistic(log)",
        "logistic",
        PreprocessingPlan(signed_log=True, standardise=True),
    ),
    ("knn", "knn", PreprocessingPlan(signed_log=True)),
    ("adaboost", "adaboost", PreprocessingPlan()),
    ("oner", "oner", PreprocessingPlan()),
]


@dataclasses.dataclass
class LearnerRow:
    dataset: str
    learner: str
    fpr: float
    tpr: float
    auc: float
    comp: float

    def cells(self) -> list[str]:
        return [
            self.dataset,
            self.learner,
            fmt_sci(self.fpr),
            fmt_rate(self.tpr),
            fmt_rate(self.auc),
            f"{self.comp:.1f}",
        ]


def run(scale: Scale | str = "bench", datasets=None, configs=None) -> list[LearnerRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = list(datasets) if datasets is not None else ["7Z-A1", "MG-B2"]
    chosen = configs if configs is not None else CONFIGS
    rows: list[LearnerRow] = []
    for name in names:
        data = generate_dataset(name, scale)
        for label, learner, plan in chosen:
            evaluation = cross_validate(
                data,
                lambda learner=learner: make_learner(learner),
                k=scale.folds,
                rng=np.random.default_rng(scale.seed),
                preprocess=plan.apply,
                complexity=model_complexity,
            )
            rows.append(
                LearnerRow(
                    dataset=name,
                    learner=label,
                    fpr=evaluation.mean_fpr,
                    tpr=evaluation.mean_tpr,
                    auc=evaluation.mean_auc,
                    comp=evaluation.mean_complexity,
                )
            )
    return rows


def main(scale: Scale | str = "bench", datasets=None) -> str:
    rows = run(scale, datasets)
    table = render_table(
        ["Dataset", "Learner", "FPR", "TPR", "AUC", "Comp"],
        [r.cells() for r in rows],
        title="Ablation A-2: learner choice and log mapping",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
