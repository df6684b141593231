"""Ablation A-6: failure-based vs deviation-based target functions.

The paper's Discussion (Section VIII): "existing work on fault
injection ... typically adopts the view that an error is any deviation
from a fault-free execution, i.e, golden run ... we believe that it is
possible to adopt a similar approach in order to derive error
detection predicates that can identify such deviations.  [Our] focus
... has been on generating predicates ... capable of detecting failure
inducing states."

This ablation builds both target functions from the *same* injected
runs and trains a C4.5 predicate on each, evaluating both predicates
against the **failure** ground truth (the thing a fail-safe system
ultimately cares about).  Expected shape: the deviation-trained
predicate behaves like the invariants of A-5 -- it flags the many
corrupted-but-absorbed states too, so judged against failures it pays
a large false positive price; at entry-sampling it degenerates further
(directly after injection, virtually every run deviates, so the
deviation concept has almost no negative class to learn from).
"""

from __future__ import annotations

import dataclasses

from repro.core.methodology import Methodology, MethodologyConfig
from repro.experiments.datasets import (
    build_target,
    campaign_config,
    dataset_spec,
)
from repro.experiments.reporting import fmt_rate, fmt_sci, render_table
from repro.experiments.scale import Scale, get_scale
from repro.injection.campaign import Campaign

__all__ = ["LabelRow", "run", "main"]


@dataclasses.dataclass
class LabelRow:
    dataset: str
    trained_on: str        # failure | deviation
    positives: int         # training positives under that labelling
    tpr_vs_failure: float  # completeness against failure ground truth
    fpr_vs_failure: float

    def cells(self) -> list[str]:
        return [
            self.dataset,
            self.trained_on,
            str(self.positives),
            fmt_rate(self.tpr_vs_failure),
            fmt_sci(self.fpr_vs_failure),
        ]


def run(scale: Scale | str = "bench", datasets=None) -> list[LabelRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = list(datasets) if datasets is not None else ["7Z-B2", "MG-A2"]
    method = Methodology(
        MethodologyConfig(learner="c45", folds=scale.folds, seed=scale.seed)
    )
    rows: list[LabelRow] = []
    for name in names:
        spec = dataset_spec(name)
        # Run the campaign fresh: the deviation label needs the golden
        # comparison, which cached logs from older runs may lack.
        target = build_target(spec.target, scale)
        result = Campaign(target, campaign_config(spec, scale)).run()
        failure_data = result.to_dataset(name, label_mode="failure")
        deviation_data = result.to_dataset(name, label_mode="deviation")

        for trained_on, data in (
            ("failure", failure_data),
            ("deviation", deviation_data),
        ):
            report = method.step3_generate(data)
            detector = report.detector(name=f"{trained_on}_detector")
            # Ground truth is always the failure labelling.
            efficiency = detector.efficiency_on(failure_data)
            rows.append(
                LabelRow(
                    dataset=name,
                    trained_on=trained_on,
                    positives=int(data.class_counts()[1]),
                    tpr_vs_failure=efficiency.completeness,
                    fpr_vs_failure=1.0 - efficiency.accuracy,
                )
            )
    return rows


def main(scale: Scale | str = "bench", datasets=None) -> str:
    rows = run(scale, datasets)
    table = render_table(
        ["Dataset", "TrainedOn", "Positives", "TPRvsFail", "FPRvsFail"],
        [r.cells() for r in rows],
        title="Ablation A-6: failure-based vs deviation-based labelling",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
