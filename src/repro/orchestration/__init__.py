"""Parallel, resumable, fault-tolerant execution of the methodology.

The expensive steps of the paper's methodology -- the Step 1 fault
injection campaigns and the Step 4 refinement grids -- are
embarrassingly parallel.  This package turns them into scheduled
*tasks* (:mod:`~repro.orchestration.tasks`) executed through worker
pools that survive worker death (:mod:`~repro.orchestration.pool`),
each completion stored as it lands in the content-addressed
:class:`~repro.injection.store.CampaignStore` (the one durable layer:
re-running a killed run against the same store resumes it), with
campaign sharding (:mod:`~repro.orchestration.campaigns`) and grid
fan-out (:mod:`~repro.orchestration.grids`).  The end-to-end driver
is :class:`repro.core.methodology.Methodology`, which takes a pool for
Step 1 and Step 4 alike.

Determinism contract: for the same seed and configuration, a merged
parallel result is bit-identical to the serial one -- any worker
count, with or without a store, resumed or not.
"""

from repro.orchestration.campaigns import plan_pairs, plan_shards, run_campaign
from repro.orchestration.grids import dataset_fingerprint, run_refinement
from repro.orchestration.pool import (
    ProcessPool,
    SerialPool,
    TaskOutcome,
    WorkerPool,
    configure,
    default_pool,
    make_pool,
    picklable,
)
from repro.orchestration.tasks import (
    Task,
    TaskGraph,
    derive_seed,
    estimate_runs,
    fingerprint_of,
)

__all__ = [
    "Task",
    "TaskGraph",
    "fingerprint_of",
    "derive_seed",
    "estimate_runs",
    "TaskOutcome",
    "WorkerPool",
    "SerialPool",
    "ProcessPool",
    "make_pool",
    "configure",
    "default_pool",
    "picklable",
    "plan_pairs",
    "plan_shards",
    "run_campaign",
    "dataset_fingerprint",
    "run_refinement",
]
