"""Experiment S-1: is the Step-4 refinement statistically significant?

Table IV's improvements are sometimes "less than a 0.000001 increase";
an obvious question the paper leaves open is which improvements are
real and which are fold noise.  This driver answers it with matched
folds: for each dataset, the baseline plan and the dataset's best
refinement plan are cross-validated on the *same* stratified folds
(same fold RNG), and the per-fold AUC differences go through the
Nadeau-Bengio corrected paired t-test.

Expected shape: refinement is significant exactly where it changes the
TPR visibly (the imbalanced datasets) and indistinguishable from the
baseline where the baseline was already near-perfect -- which is the
honest reading of Table IV.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.significance import TTestResult, compare_fold_metrics
from repro.core.methodology import Methodology, MethodologyConfig
from repro.core.preprocess import PreprocessingPlan, model_complexity
from repro.experiments.datasets import generate_dataset
from repro.experiments.reporting import fmt_rate, render_table
from repro.experiments.scale import Scale, get_scale
from repro.mining.crossval import cross_validate
from repro.mining.tree import C45DecisionTree

__all__ = ["SignificanceRow", "run", "main"]


@dataclasses.dataclass
class SignificanceRow:
    dataset: str
    best_plan: str
    baseline_auc: float
    refined_auc: float
    t_test: TTestResult

    @property
    def significant(self) -> bool:
        return self.t_test.significant(0.05)

    def cells(self) -> list[str]:
        return [
            self.dataset,
            self.best_plan,
            fmt_rate(self.baseline_auc),
            fmt_rate(self.refined_auc),
            f"{self.t_test.mean_difference:+.4f}",
            f"{self.t_test.p_value:.4f}",
            "yes" if self.significant else "no",
        ]


def run(scale: Scale | str = "bench", datasets=None) -> list[SignificanceRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = (
        list(datasets)
        if datasets is not None
        else ["7Z-A1", "7Z-B3", "FG-B1", "MG-A2", "MG-B1"]
    )
    method = Methodology(
        MethodologyConfig(learner="c45", folds=scale.folds, seed=scale.seed)
    )
    rows: list[SignificanceRow] = []
    for name in names:
        data = generate_dataset(name, scale)
        refinement = method.step4_refine(data, scale.grid)
        best_plan = refinement.best.plan
        # Matched folds: both plans evaluated with the same fold RNG.
        fold_seed = np.random.default_rng((scale.seed, 0x5151))
        baseline_eval = cross_validate(
            data,
            C45DecisionTree,
            k=scale.folds,
            rng=np.random.default_rng(fold_seed.integers(2**63)),
            preprocess=PreprocessingPlan().apply,
            complexity=model_complexity,
        )
        fold_seed = np.random.default_rng((scale.seed, 0x5151))
        refined_eval = cross_validate(
            data,
            C45DecisionTree,
            k=scale.folds,
            rng=np.random.default_rng(fold_seed.integers(2**63)),
            preprocess=best_plan.apply,
            complexity=model_complexity,
        )
        comparison = compare_fold_metrics(refined_eval, baseline_eval, "auc")
        rows.append(
            SignificanceRow(
                dataset=name,
                best_plan=best_plan.describe(),
                baseline_auc=baseline_eval.mean_auc,
                refined_auc=refined_eval.mean_auc,
                t_test=comparison,
            )
        )
    return rows


def main(scale: Scale | str = "bench", datasets=None) -> str:
    rows = run(scale, datasets)
    table = render_table(
        ["Dataset", "BestPlan", "BaseAUC", "RefAUC", "dAUC", "p", "Sig@.05"],
        [r.cells() for r in rows],
        title=(
            "S-1: significance of refinement "
            "(corrected paired t-test, matched folds)"
        ),
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
