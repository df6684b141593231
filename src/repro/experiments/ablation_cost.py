"""Ablation A-4: cost-sensitive weighting vs resampling.

Section IV reviews two treatments for imbalance: change the data
distribution implicitly via per-instance costs (Ting's instance
weighting, which C4.5 consumes directly) or explicitly via resampling.
This ablation puts them side by side on the same datasets: Ting
weighting at cost ratios 5 and 20 against oversampling-with-
replacement and SMOTE at 300%.

Expected shape (Ting's empirical finding, which the paper cites):
instance weighting is competitive with resampling -- it lifts TPR on
the imbalanced datasets for a comparable FPR cost -- while being
deterministic and not inflating the training set.
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

__all__ = ["PLANS", "CostRow", "run", "main"]

PLANS: dict[str, PreprocessingPlan] = {
    "none": PreprocessingPlan(),
    "ting-cost-5": PreprocessingPlan(cost_ratio=5.0),
    "ting-cost-20": PreprocessingPlan(cost_ratio=20.0),
    "over-300": PreprocessingPlan(sampling="oversample", level=300.0),
    "smote-300-k5": PreprocessingPlan(sampling="smote", level=300.0, neighbours=5),
}


@dataclasses.dataclass
class CostRow:
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


def run(scale: Scale | str = "bench", datasets=None) -> list[CostRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = list(datasets) if datasets is not None else ["7Z-B1", "MG-B1"]
    rows: list[CostRow] = []
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
                CostRow(
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
        title="Ablation A-4: cost-sensitive weighting vs resampling",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
