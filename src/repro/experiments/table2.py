"""Table II: the 18 fault-injection datasets.

The paper's Table II lists each dataset's target system, module,
injection location and sample location.  This driver regenerates the
table and extends it with the campaign statistics the reproduction
actually produced at the chosen scale: runs, instances, failures and
the class-imbalance ratio (the skew that motivates Step 2).
"""

from __future__ import annotations

import dataclasses

from repro.experiments.datasets import DATASET_SPECS, dataset_spec, generate_dataset
from repro.experiments.reporting import render_table
from repro.experiments.scale import Scale, get_scale

__all__ = ["Table2Row", "run", "main"]


@dataclasses.dataclass
class Table2Row:
    dataset: str
    target: str
    module: str
    injection: str
    sample: str
    instances: int
    failures: int

    @property
    def failure_rate(self) -> float:
        return self.failures / self.instances if self.instances else 0.0


def run(scale: Scale | str = "bench", datasets=None) -> list[Table2Row]:
    """Generate (or load from cache) every dataset and summarise it."""
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = list(datasets) if datasets is not None else sorted(DATASET_SPECS)
    rows: list[Table2Row] = []
    for name in names:
        spec = dataset_spec(name)
        dataset = generate_dataset(name, scale)
        counts = dataset.class_counts()
        rows.append(
            Table2Row(
                dataset=name,
                target=spec.target,
                module=spec.module,
                injection=str(spec.injection_location),
                sample=str(spec.sample_location),
                instances=len(dataset),
                failures=int(counts[1]),
            )
        )
    return rows


def main(scale: Scale | str = "bench", datasets=None) -> str:
    rows = run(scale, datasets)
    table = render_table(
        ["Dataset", "Target", "Module", "Injection", "Sample",
         "Instances", "Failures", "FailRate"],
        [
            [
                r.dataset,
                r.target,
                r.module,
                r.injection,
                r.sample,
                str(r.instances),
                str(r.failures),
                f"{r.failure_rate:.3f}",
            ]
            for r in rows
        ],
        title="Table II: summary of fault injection datasets",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
