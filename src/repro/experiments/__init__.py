"""Experiment drivers: one module per paper table/figure plus ablations.

Every artefact of the paper's evaluation has a driver here (the
per-experiment index lives in DESIGN.md):

* :mod:`repro.experiments.table1` -- the confusion-matrix form of
  Table I, populated from a real model;
* :mod:`repro.experiments.table2` -- the 18 fault-injection datasets
  of Table II (campaign summary);
* :mod:`repro.experiments.table3` -- baseline Decision Tree Induction
  results (Table III: FPR/TPR/AUC/Comp/Var per dataset);
* :mod:`repro.experiments.table4` -- refined results after the Step-4
  grid search (Table IV: adds the S and N columns);
* :mod:`repro.experiments.figure1` -- the methodology pipeline of
  Figure 1, executed stage by stage with a trace;
* :mod:`repro.experiments.figure2` -- a decision-tree predicate
  example in the style of Figure 2;
* :mod:`repro.experiments.ablation_sampling` /
  :mod:`~repro.experiments.ablation_learners` /
  :mod:`~repro.experiments.ablation_location` -- ablations over the
  design choices DESIGN.md calls out;
* :mod:`repro.experiments.validation` -- the runtime-assertion
  re-injection validation of Section VII-D;
* :mod:`repro.experiments.mining_bench` -- throughput of the
  vectorised mining data plane (presorted induction, batch inference,
  reuse caches) vs the naive reference, under its bit-identity
  contract.

All drivers are parameterised by an :class:`~repro.experiments.scale.Scale`
("smoke" for tests, "bench" for the recorded numbers, "paper" for the
full-size configuration) and keep campaign shards in the campaign
store so the expensive Step 1 runs once per (dataset, scale, target
source).
"""

from repro.experiments.scale import Scale, get_scale
from repro.experiments.datasets import (
    DATASET_SPECS,
    build_target,
    campaign_config,
    generate_campaign,
    generate_dataset,
)

__all__ = [
    "DATASET_SPECS",
    "Scale",
    "build_target",
    "campaign_config",
    "generate_campaign",
    "generate_dataset",
    "get_scale",
]
