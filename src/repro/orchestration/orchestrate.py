"""End-to-end orchestrated pipeline for one Table II dataset.

``repro orchestrate <dataset>`` runs the expensive half of the
methodology -- the Step 1 injection campaign and the Step 4 refinement
grid -- through one worker pool and, optionally, one campaign store:

* the campaign is sharded and executed in parallel, each completed
  shard stored as it lands;
* its records become the mining dataset (Step 2's format
  transformation);
* the baseline model is cross-validated (Step 3's evaluation) and the
  refinement grid searched in parallel, trials stored in the same
  store;
* progress and latency flow through one
  :class:`~repro.runtime.metrics.RuntimeMetrics` instance.

Because campaign-shard addresses do not involve the grid, rerunning
with a different grid against the same store reuses every campaign
shard and evaluates only the new trials; rerunning a killed run
resumes it.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro import observability as obs
from repro.orchestration.grids import run_refinement
from repro.orchestration.pool import WorkerPool, make_pool
from repro.runtime.metrics import RuntimeMetrics

__all__ = ["OrchestrationReport", "run_dataset"]


@dataclasses.dataclass
class OrchestrationReport:
    """What one orchestrated pipeline run did and found."""

    dataset: str
    scale: str
    learner: str
    jobs: int
    seconds: float
    campaign: dict
    baseline: dict
    refined: dict
    best_plan: str
    metrics: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_dataset(
    name: str,
    scale: str = "smoke",
    jobs: int | None = None,
    store=None,
    learner: str = "c45",
    pool: WorkerPool | None = None,
    metrics: RuntimeMetrics | None = None,
    prune: str | None = None,
    audit_fraction: float | None = None,
) -> OrchestrationReport:
    """Campaign -> dataset -> baseline CV -> refined grid, orchestrated.

    ``prune="static"`` runs the campaign through the static
    injection-space pruner (:mod:`repro.analysis.prune`): proven-dead
    and equivalent points are synthesized instead of executed, and
    ``audit_fraction`` of the pruned cells are re-injected for real as
    a soundness check.  Both set the dataset's
    :class:`~repro.injection.campaign.CampaignConfig` fields of the
    same names (``prune="none"`` clears it; ``None`` keeps the
    config's own).  The mined dataset is bit-identical either way.
    ``store`` (a :class:`repro.injection.store.CampaignStore`) holds
    the campaign shards and refinement trials across runs.
    """
    # Heavy experiment modules are imported lazily; orchestration is a
    # lower layer than the experiment drivers that also call into it.
    from repro.core.preprocess import (
        LearnerFactory,
        default_plan_for,
        model_complexity,
    )
    from repro.experiments.datasets import (
        DATASET_SPECS,
        build_target,
        campaign_config,
    )
    from repro.experiments.scale import get_scale
    from repro.injection.campaign import Campaign
    from repro.mining.crossval import cross_validate

    spec = DATASET_SPECS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_SPECS)}"
        )
    scale_obj = get_scale(scale)
    metrics = metrics if metrics is not None else RuntimeMetrics()
    owns_pool = pool is None
    if owns_pool:
        pool = make_pool(jobs, metrics=metrics)
    started = time.perf_counter()
    try:
        with obs.span(
            "orchestrate.run", dataset=name, scale=scale_obj.name, jobs=pool.jobs
        ):
            with obs.span("phase.campaign", target=spec.target):
                target = build_target(spec.target, scale_obj)
                config = campaign_config(spec, scale_obj).with_prune(
                    prune, audit_fraction
                )
                result = Campaign(target, config).run(pool=pool, store=store)
                dataset = result.to_dataset(name)

            factory = LearnerFactory(learner)
            plan = default_plan_for(learner)
            with obs.span("phase.baseline", learner=learner):
                baseline = cross_validate(
                    dataset,
                    factory,
                    k=scale_obj.folds,
                    rng=np.random.default_rng((scale_obj.seed, 0)),
                    preprocess=plan.apply,
                    complexity=model_complexity,
                )
            with obs.span("phase.refine", plans=scale_obj.grid.size()):
                refined = run_refinement(
                    dataset,
                    factory,
                    scale_obj.grid,
                    folds=scale_obj.folds,
                    seed=scale_obj.seed,
                    complexity=model_complexity,
                    pool=pool,
                    store=store,
                )
    finally:
        if owns_pool:
            pool.close()
    return OrchestrationReport(
        dataset=name,
        scale=scale_obj.name,
        learner=learner,
        jobs=pool.jobs,
        seconds=time.perf_counter() - started,
        campaign={
            "runs": result.n_runs,
            "failures": result.n_failures,
            "crashes": result.n_crashes,
            "failure_rate": result.failure_rate,
            **getattr(result, "orchestration", {}),
            **(
                {"prune": result.prune}
                if getattr(result, "prune", None) is not None
                else {}
            ),
        },
        baseline=baseline.summary(),
        refined=refined.best.evaluation.summary(),
        best_plan=refined.best.plan.describe(),
        metrics=metrics.report(),
    )
