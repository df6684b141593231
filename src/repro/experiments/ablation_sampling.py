"""Ablation A-1: how much does the imbalance treatment matter?

Step 2 motivates resampling by the skew of fault injection data; Step
4 sweeps its parameters.  This ablation isolates the *kind* of
treatment: for each dataset it cross-validates C4.5 under four fixed
plans -- none, undersampling (50% majority retained), oversampling
with replacement (300%), and SMOTE (300%, k=5) -- reporting
AUC/TPR/FPR per plan.  Expected shape: resampling raises TPR on the
imbalanced datasets (most visibly where the baseline TPR is lowest,
the paper's FG-B pattern) at a small FPR cost, with SMOTE >= plain
oversampling more often than not.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.preprocess import PreprocessingPlan
from repro.experiments.datasets import generate_dataset
from repro.experiments.reporting import fmt_rate, fmt_sci, render_table
from repro.experiments.scale import Scale, get_scale
from repro.mining.crossval import cross_validate
from repro.mining.tree import C45DecisionTree

__all__ = ["PLANS", "AblationRow", "run", "main"]

PLANS: dict[str, PreprocessingPlan] = {
    "none": PreprocessingPlan(),
    "under-50": PreprocessingPlan(sampling="undersample", level=50.0),
    "over-300": PreprocessingPlan(sampling="oversample", level=300.0),
    "smote-300-k5": PreprocessingPlan(sampling="smote", level=300.0, neighbours=5),
}


@dataclasses.dataclass
class AblationRow:
    dataset: str
    plan: str
    fpr: float
    tpr: float
    auc: float

    def cells(self) -> list[str]:
        return [
            self.dataset,
            self.plan,
            fmt_sci(self.fpr),
            fmt_rate(self.tpr),
            fmt_rate(self.auc),
        ]


def run(scale: Scale | str = "bench", datasets=None) -> list[AblationRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = (
        list(datasets)
        if datasets is not None
        else ["7Z-A1", "7Z-B2", "FG-B1", "MG-A2"]
    )
    rows: list[AblationRow] = []
    for name in names:
        data = generate_dataset(name, scale)
        for plan_name, plan in PLANS.items():
            evaluation = cross_validate(
                data,
                C45DecisionTree,
                k=scale.folds,
                rng=np.random.default_rng(scale.seed),
                preprocess=plan.apply,
            )
            rows.append(
                AblationRow(
                    dataset=name,
                    plan=plan_name,
                    fpr=evaluation.mean_fpr,
                    tpr=evaluation.mean_tpr,
                    auc=evaluation.mean_auc,
                )
            )
    return rows


def main(scale: Scale | str = "bench", datasets=None) -> str:
    rows = run(scale, datasets)
    table = render_table(
        ["Dataset", "Plan", "FPR", "TPR", "AUC"],
        [r.cells() for r in rows],
        title="Ablation A-1: class-imbalance treatment",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
