"""Experiment V-1: runtime-assertion validation (Section VII-D).

The paper's final check installs each model's predicate as a runtime
assertion at its code location and repeats the fault injection
experiments "to ensure that the observed FPR and TPR values were
commensurate with the rates presented previously".  This driver does
exactly that -- same test cases, new injected runs -- in both
evaluation modes:

* single-shot at the sampling point (the trained distribution) --
  observed rates should be commensurate with the CV estimates;
* continuous monitoring at every subsequent occurrence -- additionally
  yields detection latency, and quantifies how predicates degrade away
  from their sampling point (the location-specificity the paper
  flags as future work).

Pass ``holdout=True`` to validate on *unseen* test cases instead --
stricter than the paper's procedure.  Expect degradation on targets
whose predicates key on workload-specific thresholds (e.g. the 7Z
archive offsets); that gap is a real observation about
workload-generality, recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses

from repro.core.methodology import Methodology, MethodologyConfig
from repro.core.validate import ValidationCampaign
from repro.experiments.datasets import (
    build_target,
    campaign_config,
    dataset_spec,
    generate_dataset,
)
from repro.experiments.reporting import fmt_rate, fmt_sci, render_table
from repro.experiments.scale import Scale, get_scale

__all__ = ["ValidationRow", "run", "main"]


@dataclasses.dataclass
class ValidationRow:
    dataset: str
    cv_tpr: float
    cv_fpr: float
    observed_tpr: float
    observed_fpr: float
    continuous_tpr: float
    continuous_fpr: float
    mean_latency: float
    commensurate: bool

    def cells(self) -> list[str]:
        return [
            self.dataset,
            fmt_rate(self.cv_tpr),
            fmt_sci(self.cv_fpr),
            fmt_rate(self.observed_tpr),
            fmt_sci(self.observed_fpr),
            fmt_rate(self.continuous_tpr),
            fmt_sci(self.continuous_fpr),
            f"{self.mean_latency:.2f}",
            "yes" if self.commensurate else "NO",
        ]


def _holdout_test_cases(spec, scale: Scale) -> tuple[int, ...]:
    """Test cases the training campaign did not use."""
    if spec.target == "7Z":
        used = scale.sz_test_cases
        return tuple(max(used) + 1 + i for i in range(2))
    if spec.target == "MG":
        used = scale.mg_test_cases
        return tuple(max(used) + 1 + i for i in range(2))
    # FG has exactly 9 scenarios; hold out by using scenarios the
    # training scale skipped, falling back to a subset when it used all.
    used = set(scale.fg_test_cases)
    free = [tc for tc in range(9) if tc not in used]
    return tuple(free[:2]) if free else (1, 5)


def run(
    scale: Scale | str = "bench",
    datasets=None,
    tolerance: float = 0.15,
    holdout: bool = False,
) -> list[ValidationRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = list(datasets) if datasets is not None else ["7Z-A1", "MG-A1", "MG-B2"]
    method = Methodology(
        MethodologyConfig(learner="c45", folds=scale.folds, seed=scale.seed)
    )
    rows: list[ValidationRow] = []
    for name in names:
        spec = dataset_spec(name)
        data = generate_dataset(name, scale)
        outcome = method.run(data, scale.grid)
        refined = outcome.refined
        detector = refined.detector(name=f"{name.replace('-', '_')}_detector")

        config = campaign_config(spec, scale)
        if holdout:
            config = dataclasses.replace(
                config, test_cases=_holdout_test_cases(spec, scale)
            )
        target = build_target(spec.target, scale)
        single = ValidationCampaign(target, config, detector).validate()
        continuous = ValidationCampaign(
            target, config, detector, mode="continuous"
        ).validate()

        cv_tpr = refined.evaluation.mean_tpr
        cv_fpr = refined.evaluation.mean_fpr
        rows.append(
            ValidationRow(
                dataset=name,
                cv_tpr=cv_tpr,
                cv_fpr=cv_fpr,
                observed_tpr=single.observed_tpr,
                observed_fpr=single.observed_fpr,
                continuous_tpr=continuous.observed_tpr,
                continuous_fpr=continuous.observed_fpr,
                mean_latency=continuous.mean_latency,
                commensurate=single.commensurate_with(cv_tpr, cv_fpr, tolerance),
            )
        )
    return rows


def main(scale: Scale | str = "bench", datasets=None) -> str:
    rows = run(scale, datasets)
    table = render_table(
        ["Dataset", "cvTPR", "cvFPR", "obsTPR", "obsFPR",
         "contTPR", "contFPR", "Latency", "Commensurate"],
        [r.cells() for r in rows],
        title="V-1: runtime-assertion validation on held-out test cases",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
