"""Experiment L-1: detection latency and location composition.

Coverage and latency are the paper's two detector-efficiency metrics
(Sections I/II: "coverage relates to the design problem, while latency
relates to the location problem").  The tables only report the design
side; this experiment measures the location side on the reproduction:

* train one detector at the module's **entry** and one at its **exit**
  (the 1- and 3-style datasets of Table II);
* install each — and their union (:func:`repro.core.composition.any_of`)
  — as continuous runtime assertions and repeat the injection campaign
  of the entry configuration;
* report Powell-style coverage with Wilson bounds, observed FPR, and
  the detection-latency distribution in probe occurrences.

Expected shape: the entry detector catches corruptions at latency ~0
(it guards the injection point); the exit detector sees them only
after the module executes, trading latency for observing propagated
effects; the union dominates both in coverage at the sum of their
false-positive costs.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.coverage import EfficiencyReport, detector_efficiency_report
from repro.core.composition import any_of
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

__all__ = ["LatencyRow", "run", "main"]


@dataclasses.dataclass
class LatencyRow:
    group: str          # e.g. "MG-B"
    detector: str       # entry | exit | union
    report: EfficiencyReport

    def cells(self) -> list[str]:
        coverage = self.report.coverage
        latency = self.report.latency
        return [
            self.group,
            self.detector,
            fmt_rate(coverage.point),
            f"[{coverage.wilson_low:.3f},{coverage.wilson_high:.3f}]",
            fmt_sci(self.report.false_positive_rate),
            f"{latency.mean:.2f}",
            f"{latency.p90:.1f}",
        ]


def run(scale: Scale | str = "bench", groups=None) -> list[LatencyRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    chosen = list(groups) if groups is not None else ["MG-B"]
    method = Methodology(
        MethodologyConfig(learner="c45", folds=scale.folds, seed=scale.seed)
    )
    rows: list[LatencyRow] = []
    for group in chosen:
        entry_name, exit_name = f"{group}1", f"{group}3"
        entry_spec, exit_spec = dataset_spec(entry_name), dataset_spec(exit_name)
        entry_detector = method.step3_generate(
            generate_dataset(entry_name, scale)
        ).detector(
            location=campaign_config(entry_spec, scale).sample_probe,
            name="entry",
        )
        exit_detector = method.step3_generate(
            generate_dataset(exit_name, scale)
        ).detector(
            location=campaign_config(exit_spec, scale).sample_probe,
            name="exit",
        )
        union = any_of([entry_detector, exit_detector], name="union")
        # Validation runs the detectors as continuous runtime
        # assertions -- exactly the deployed configuration -- so lower
        # them through the serving compiler first; the compiler's
        # self-check guarantees the coverage/latency numbers are
        # unchanged while the campaign itself runs faster.
        for detector in (entry_detector, exit_detector, union):
            detector.compile()

        # Re-inject with each detector monitoring continuously.  The
        # campaign injects at the entry (the *1 configuration) and
        # samples at each detector's own probe.
        target = build_target(entry_spec.target, scale)
        for label, detector, spec, everywhere in (
            ("entry", entry_detector, entry_spec, False),
            ("exit", exit_detector, exit_spec, False),
            # The union spans both locations, so its assertion runs at
            # every probe (monitor_all_probes).
            ("union", union, exit_spec, True),
        ):
            config = campaign_config(spec, scale)
            config = dataclasses.replace(
                config,
                injection_location=entry_spec.injection_location,
            )
            validation = ValidationCampaign(
                target, config, detector, mode="continuous",
                monitor_all_probes=everywhere,
            ).validate()
            rows.append(
                LatencyRow(
                    group=group,
                    detector=label,
                    report=detector_efficiency_report(validation),
                )
            )
    return rows


def main(scale: Scale | str = "bench", groups=None) -> str:
    rows = run(scale, groups)
    table = render_table(
        ["Group", "Detector", "Coverage", "Wilson95", "FPR",
         "MeanLat", "P90Lat"],
        [r.cells() for r in rows],
        title="L-1: coverage and latency by detector location",
    )
    print(table)
    return table


if __name__ == "__main__":
    main()
