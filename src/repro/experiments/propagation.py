"""Experiment P-1: error propagation profiles (the [14] substrate).

For each module the paper injects into, compute the per-variable error
permeability from the campaign records and print the placement-order
ranking with its bit-region profile.  This is the analysis the paper
assumes has already chosen the detector locations; running it on the
reproduction's own campaigns closes that loop (and explains the
failure rates of Table II: modules whose variables are mostly
resilient produce the heavily imbalanced datasets).
"""

from __future__ import annotations

from repro.analysis.propagation import PropagationReport, analyse_propagation
from repro.experiments.datasets import generate_campaign
from repro.experiments.reporting import render_table
from repro.experiments.scale import Scale, get_scale

__all__ = ["run", "main"]


def run(scale: Scale | str = "bench", datasets=None) -> list[PropagationReport]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = (
        list(datasets)
        if datasets is not None
        else ["7Z-A1", "7Z-B1", "FG-A1", "FG-B1", "MG-A1", "MG-B1"]
    )
    reports = []
    for name in names:
        reports.append(analyse_propagation(generate_campaign(name, scale)))
    return reports


def main(scale: Scale | str = "bench", datasets=None) -> str:
    reports = run(scale, datasets)
    blocks = []
    for report in reports:
        rows = []
        for v in report.ranked():
            rows.append(
                [
                    v.variable,
                    v.kind,
                    str(v.runs),
                    str(v.failures),
                    f"{v.permeability:.3f}",
                    f"{v.region_permeability('low'):.2f}",
                    f"{v.region_permeability('mid'):.2f}",
                    f"{v.region_permeability('high'):.2f}",
                ]
            )
        table = render_table(
            ["Variable", "Kind", "Runs", "Fails", "Perm",
             "LowBits", "MidBits", "HighBits"],
            rows,
            title=(
                f"P-1 {report.target}/{report.module}"
                f"@{report.injection_location}: module permeability "
                f"{report.module_permeability:.3f}"
            ),
        )
        critical = ", ".join(report.critical_variables(0.4)) or "-"
        resilient = ", ".join(report.resilient_variables(0.02)) or "-"
        blocks.append(
            f"{table}\n  critical (perm >= 0.4): {critical}\n"
            f"  resilient (perm <= 0.02): {resilient}"
        )
    text = "\n\n".join(blocks)
    print(text)
    return text


if __name__ == "__main__":
    main()
