"""Ablation A-5: mined predicates vs likely-invariant baselines.

Section II-D positions the methodology against Daikon-style likely
program invariants: "our approach seeks to detect erroneous states
that lead to failure rather than all erroneous states".  This ablation
makes that contrast measurable.  For each dataset it builds three
detectors for the same program location and evaluates them on the same
injection data:

* **mined** -- the methodology's baseline C4.5 predicate (Step 3);
* **invariants** -- Daikon-style invariants (ranges, constants, signs,
  orderings) mined from the golden runs, violation = detection;
* **range-EA** -- Hiller-style executable assertions (range constraints
  only, generous margin), the specification-constraint baseline of
  Section II-A.

Expected shape: the invariant detectors are *complete* (they flag the
states that lead to failure, since those deviate from golden
behaviour) but pay a large false-positive price -- they also flag the
majority of corrupted-but-harmless states, which the failure-aware
mined predicate deliberately ignores.
"""

from __future__ import annotations

import dataclasses

from repro.baselines.invariants import mine_invariants, range_assertions
from repro.core.methodology import Methodology, MethodologyConfig
from repro.experiments.datasets import (
    build_target,
    campaign_config,
    dataset_spec,
    generate_dataset,
)
from repro.experiments.reporting import fmt_rate, fmt_sci, render_table
from repro.experiments.scale import Scale, get_scale
from repro.injection.golden import capture_golden_run

__all__ = ["BaselineRow", "run", "main"]


@dataclasses.dataclass
class BaselineRow:
    dataset: str
    approach: str
    tpr: float       # completeness
    fpr: float       # 1 - accuracy
    complexity: int  # atomic conditions in the predicate

    def cells(self) -> list[str]:
        return [
            self.dataset,
            self.approach,
            fmt_rate(self.tpr),
            fmt_sci(self.fpr),
            str(self.complexity),
        ]


def run(scale: Scale | str = "bench", datasets=None) -> list[BaselineRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = list(datasets) if datasets is not None else ["7Z-A1", "FG-B1", "MG-B1"]
    method = Methodology(
        MethodologyConfig(learner="c45", folds=scale.folds, seed=scale.seed)
    )
    rows: list[BaselineRow] = []
    for name in names:
        spec = dataset_spec(name)
        data = generate_dataset(name, scale)
        config = campaign_config(spec, scale)
        target = build_target(spec.target, scale)

        # Golden-run traces at the sampling probe feed the baselines.
        samples = []
        for test_case in config.test_cases:
            golden = capture_golden_run(target, test_case)
            samples.extend(
                s.variables for s in golden.samples_at(config.sample_probe)
            )

        mined = method.step3_generate(data).detector(name="mined")
        detectors = {
            "mined (step 3)": mined,
            "invariants": mine_invariants(
                samples, config.sample_probe
            ).to_detector("invariants"),
            "range-EA": range_assertions(
                samples, config.sample_probe
            ).to_detector("range_ea"),
        }
        for approach, detector in detectors.items():
            efficiency = detector.efficiency_on(data)
            rows.append(
                BaselineRow(
                    dataset=name,
                    approach=approach,
                    tpr=efficiency.completeness,
                    fpr=1.0 - efficiency.accuracy,
                    complexity=detector.predicate.complexity(),
                )
            )
    return rows


def main(scale: Scale | str = "bench", datasets=None) -> str:
    rows = run(scale, datasets)
    table = render_table(
        ["Dataset", "Approach", "TPR", "FPR", "Conds"],
        [r.cells() for r in rows],
        title="Ablation A-5: mined predicates vs invariant baselines",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
