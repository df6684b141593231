"""Ablation A-3: injection/sampling location combinations.

Section VI-A: "we may wish to inject errors at the start of a module,
and sample at the end.  Such a process will yield one type of
predicate. ... As future work, we plan to investigate the relationship
between injection and sampling locations in the generation of
efficient predicates."  Table II realises three combinations per
module (entry/entry, entry/exit, exit/exit); this ablation lines the
baseline results up per module so the location effect is directly
readable -- the reproduction's take on that future-work question.

Expected shape: entry/entry sampling sees the corrupted value itself
(predicates key on the injected variable), entry/exit sees its
propagated consequences (often easier or harder depending on whether
the module masks or amplifies the error); no combination dominates.
"""

from __future__ import annotations

import dataclasses

from repro.experiments.datasets import dataset_spec
from repro.experiments.reporting import fmt_rate, fmt_sci, render_table
from repro.experiments.scale import Scale, get_scale
from repro.experiments import table3

__all__ = ["LocationRow", "run", "main"]


@dataclasses.dataclass
class LocationRow:
    module_group: str  # e.g. "7Z-A"
    combination: str   # e.g. "entry/exit"
    dataset: str
    fpr: float
    tpr: float
    auc: float

    def cells(self) -> list[str]:
        return [
            self.module_group,
            self.combination,
            self.dataset,
            fmt_sci(self.fpr),
            fmt_rate(self.tpr),
            fmt_rate(self.auc),
        ]


def run(scale: Scale | str = "bench", groups=None) -> list[LocationRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    chosen = list(groups) if groups is not None else ["7Z-A", "7Z-B", "MG-A"]
    names = [f"{group}{k}" for group in chosen for k in (1, 2, 3)]
    for name in names:
        dataset_spec(name)
    rows: list[LocationRow] = []
    for entry in table3.run(scale, names):
        spec = dataset_spec(entry.dataset)
        rows.append(
            LocationRow(
                module_group=entry.dataset[:-1],
                combination=(
                    f"{spec.injection_location}/{spec.sample_location}"
                ),
                dataset=entry.dataset,
                fpr=entry.fpr,
                tpr=entry.tpr,
                auc=entry.auc,
            )
        )
    return rows


def main(scale: Scale | str = "bench", groups=None) -> str:
    rows = run(scale, groups)
    table = render_table(
        ["Module", "Inject/Sample", "Dataset", "FPR", "TPR", "AUC"],
        [r.cells() for r in rows],
        title="Ablation A-3: injection/sampling location combinations",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
