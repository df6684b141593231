"""Command-line entry point: ``repro-experiments <experiment> [options]``.

Examples::

    repro-experiments table3 --scale bench
    repro-experiments table4 --scale smoke --datasets 7Z-A1 MG-B2
    repro-experiments all --scale bench
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import (
    ablation_baselines,
    ablation_cost,
    ablation_labels,
    ablation_learners,
    ablation_location,
    ablation_sampling,
    figure1,
    figure2,
    figure_roc,
    latency,
    propagation,
    significance,
    table1,
    table2,
    table3,
    table4,
    validation,
)

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS = {
    "table1": lambda scale, datasets: table1.main(
        scale, datasets[0] if datasets else "7Z-A1"
    ),
    "table2": table2.main,
    "table3": table3.main,
    "table4": table4.main,
    "figure1": lambda scale, datasets: figure1.main(
        scale, datasets[0] if datasets else "MG-A2"
    ),
    "figure2": lambda scale, datasets: figure2.main(
        scale, datasets[0] if datasets else "MG-A1"
    ),
    "figure-roc": lambda scale, datasets: figure_roc.main(
        scale, datasets[0] if datasets else "FG-B1"
    ),
    "ablation-sampling": ablation_sampling.main,
    "ablation-learners": ablation_learners.main,
    "ablation-location": lambda scale, datasets: ablation_location.main(
        scale, datasets
    ),
    "ablation-baselines": ablation_baselines.main,
    "ablation-cost": ablation_cost.main,
    "ablation-labels": ablation_labels.main,
    "propagation": propagation.main,
    "significance": significance.main,
    "latency": lambda scale, datasets: latency.main(scale, datasets),
    "validation": validation.main,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "report"],
        help="which table/figure/ablation to run",
    )
    parser.add_argument(
        "--scale",
        default="bench",
        choices=("smoke", "bench", "paper"),
        help="experiment scale (default: bench)",
    )
    parser.add_argument(
        "--datasets",
        nargs="*",
        default=None,
        help="restrict to specific Table II dataset names",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="for 'report': write the combined markdown to this file",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="run campaigns and refinement grids on N worker processes "
        "(results are bit-identical to serial)",
    )
    args = parser.parse_args(argv)

    if args.jobs is not None:
        from repro.orchestration import configure

        configure(jobs=args.jobs)

    if args.experiment == "report":
        from repro.experiments import report

        report.main(args.scale, None, args.output)
        return 0
    if args.experiment == "all":
        for name in sorted(EXPERIMENTS):
            print(f"\n=== {name} ===")
            EXPERIMENTS[name](args.scale, args.datasets)
        return 0
    EXPERIMENTS[args.experiment](args.scale, args.datasets)
    return 0


if __name__ == "__main__":
    sys.exit(main())
