"""Figure 1: the methodology pipeline, executed with a trace.

Figure 1 of the paper depicts the four-stage flow (fault injection ->
preprocessing -> model generation -> refinement).  The reproduction's
version of a pipeline figure is the pipeline *running*: this driver
executes all four steps on one target system end to end and prints
what each stage produced, ending with the generated detector as
executable-assertion source.
"""

from __future__ import annotations

import io

from repro.core.detector import Detector
from repro.core.methodology import Methodology, MethodologyConfig
from repro.experiments.datasets import (
    build_target,
    campaign_config,
    dataset_spec,
)
from repro.experiments.scale import Scale, get_scale

__all__ = ["run", "main"]


def run(scale: Scale | str = "bench", dataset: str = "MG-A2") -> tuple[str, Detector]:
    """Execute steps 1-4 and return (trace, generated detector)."""
    if isinstance(scale, str):
        scale = get_scale(scale)
    spec = dataset_spec(dataset)
    out = io.StringIO()
    method = Methodology(
        MethodologyConfig(learner="c45", folds=scale.folds, seed=scale.seed)
    )

    out.write("[Step 1] Fault injection analysis\n")
    target = build_target(spec.target, scale)
    config = campaign_config(spec, scale)
    result = method.step1_inject(target, config)
    out.write(
        f"    target={spec.target} module={spec.module} "
        f"inject@{config.injection_location} sample@{config.sample_location}\n"
        f"    runs={result.n_runs} failures={result.n_failures} "
        f"crashes={result.n_crashes} failure_rate={result.failure_rate:.3f}\n"
    )

    out.write("[Step 2] Algorithm selection and preprocessing\n")
    data = result.to_dataset(dataset)
    counts = data.class_counts()
    out.write(
        f"    learner=c45 (symbolic); format: PROPANE log -> dataset "
        f"({len(data)} instances, {data.n_attributes} attributes)\n"
        f"    class imbalance: nofail={counts[0]} fail={counts[1]}\n"
    )

    out.write("[Step 3] Data mining / model generation (baseline)\n")
    baseline = method.step3_generate(data)
    summary = baseline.summary()
    out.write(
        f"    10-fold CV: FPR={summary['fpr']:.5f} TPR={summary['tpr']:.4f} "
        f"AUC={summary['auc']:.4f} Comp={summary['comp']:.1f}\n"
    )

    out.write("[Step 4] Model refinement and optimisation\n")
    refinement = method.step4_refine(data, scale.grid)
    best = refinement.best
    out.write(
        f"    searched {len(refinement.trials)} plans; "
        f"best={best.plan.describe()} AUC={best.evaluation.mean_auc:.4f} "
        f"(baseline {baseline.evaluation.mean_auc:.4f})\n"
    )

    if best.evaluation.mean_auc >= baseline.evaluation.mean_auc:
        final = method._final_report(data, best.plan, best.evaluation)
    else:
        final = baseline
    detector = final.detector(
        location=config.sample_probe, name="generated_detector"
    )
    out.write("[Output] Error detection mechanism\n")
    out.write(detector.to_source())
    return out.getvalue(), detector


def main(scale: Scale | str = "bench", dataset: str = "MG-A2") -> str:
    trace, _ = run(scale, dataset)
    print(trace)
    return trace


if __name__ == "__main__":
    main()
