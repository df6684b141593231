"""Canonical span and counter names across the pipeline.

Span names are the tracer's public contract: summaries group by them,
dashboards filter on them, and cross-subsystem traces only line up
when every emitter spells them the same way.  This module is the one
place they are defined; emitters import the constant instead of
retyping the string.

Phases (``phase.*``) are the top-level pipeline stages the summary
compares against the root wall clock; everything else is a nested
working span.
"""

from __future__ import annotations

__all__ = [
    "PHASE_CAMPAIGN",
    "PHASE_BASELINE",
    "PHASE_REFINE",
    "ENGINE_BATCH",
    "POOL_RUN",
    "ORCHESTRATION_TASK",
    "WORKER_START",
    "CAMPAIGN_SHARD",
    "CAMPAIGN_CHECKPOINT",
    "PRUNE_PLAN",
    "PRUNE_SYNTHESIZE",
    "PRUNE_AUDIT",
    "SAMPLE_PLAN",
    "SAMPLE_ROUND",
    "SAMPLE_ESTIMATE",
    "STORE_RESOLVE",
    "STORE_SYNC",
    "STORE_GC",
    "COUNTER_DETECTIONS",
    "COUNTER_FAULTS",
    "COUNTER_PRUNED",
    "COUNTER_AUDITED",
    "COUNTER_CONTRADICTIONS",
    "COUNTER_SAMPLED_CELLS",
    "COUNTER_CONVERGED_STRATA",
    "COUNTER_STORE_HITS",
    "COUNTER_STORE_MISSES",
    "COUNTER_STORE_INVALIDATED",
    "COUNTER_STORE_WRITES",
    "COUNTER_STORE_STALE",
    "COUNTER_RESUMED",
    "COUNTER_REPLAYED",
    "COUNTER_REJOINED",
    "COUNTER_CONVERGED",
    "COUNTER_UNITS_SKIPPED",
    "COUNTER_UNITS",
    "COUNTER_CHECKS",
    "COUNTER_RESTORES",
    "COUNTER_CHECK_BYTES",
    "COUNTER_SIBLING",
]

# -- pipeline phases (orchestrate.run) --------------------------------
PHASE_CAMPAIGN = "phase.campaign"
PHASE_BASELINE = "phase.baseline"
PHASE_REFINE = "phase.refine"

# -- runtime / orchestration (emitted since PR 1/3/5) ------------------
ENGINE_BATCH = "engine.batch"
POOL_RUN = "pool.run"
ORCHESTRATION_TASK = "orchestration.task"
WORKER_START = "worker.start"

# -- campaign data plane (repro.orchestration.campaigns) ---------------
#: One shard's injected runs in a worker (carries ``target`` and
#: ``pairs``; counts ``runs`` -- every executed cell, resumed or
#: replayed -- plus ``failures``, ``resumed``, ``replayed``,
#: ``rejoined``, ``converged``, ``units_skipped``, ``units``,
#: ``checks``, ``restores`` and ``check_bytes``).  The span's self
#: time over ``units`` is the target's cost per executed unit.
CAMPAIGN_SHARD = "campaign.shard"
#: Stepping each test case's fault-free run once to snapshot the
#: golden-prefix checkpoints injected runs resume from, and the golden
#: trail they stop against (carries ``target``; counts
#: ``checkpoints``).
CAMPAIGN_CHECKPOINT = "campaign.checkpoint"

# -- static injection-space pruning (repro.analysis.prune) -------------
#: Dataflow analysis + golden capture + per-point classification
#: (carries ``target``; counts ``points`` and ``pruned``).
PRUNE_PLAN = "prune.plan"
#: Merging executed records with synthesized dead/member records,
#: once per pruned run, sampled or not (counts ``synthesized``).
PRUNE_SYNTHESIZE = "prune.synthesize"
#: Seeded re-injection of pruned cells against synthesized records
#: (counts ``audited`` and ``contradictions``).
PRUNE_AUDIT = "prune.audit"

# -- statistical sampling campaigns (repro.injection.sampling) ---------
#: Stratification of the (restricted) pair space into seeded draw
#: orders (carries ``target``, ``ci``; counts ``strata``, ``cells``).
SAMPLE_PLAN = "campaign.sample.plan"
#: One synchronized sampling round across every open stratum (carries
#: ``round``, ``pairs``; counts ``sampled_cells``).
SAMPLE_ROUND = "campaign.sample.round"
#: Final per-stratum interval estimation over the assembled records
#: (counts ``sampled_cells`` and ``converged_strata``).
SAMPLE_ESTIMATE = "campaign.sample.estimate"

# -- compositional campaign store (repro.injection.store) --------------
#: Deriving the per-shard store keys and peeking containment during
#: campaign planning (carries ``target``; counts ``shards``,
#: ``store_hits`` and ``sibling`` for the fully-stored fast path
#: decision).
STORE_RESOLVE = "campaign.store.resolve"
#: Post-run reconciliation of one campaign against its store (carries
#: ``target``, ``root``; counts ``store_hits``/``store_misses``/
#: ``store_invalidated``/``store_writes`` deltas of the run).
STORE_SYNC = "campaign.store.sync"
#: Removing stale shard generations (counts ``store_stale``).
STORE_GC = "campaign.store.gc"

# -- counter names -----------------------------------------------------
COUNTER_DETECTIONS = "detections"
COUNTER_FAULTS = "faults"
#: Injection points (variable x bit) skipped by a prune plan.
COUNTER_PRUNED = "pruned"
#: Pruned cells re-injected for real by the audit pass.
COUNTER_AUDITED = "audited"
#: Audited cells whose real outcome contradicted the synthesized one.
COUNTER_CONTRADICTIONS = "contradictions"
#: Cells (variable x bit x time x test case) executed by a sampling
#: campaign.
COUNTER_SAMPLED_CELLS = "sampled_cells"
#: Strata whose early-stop rule fired (every class interval at or
#: below the target half-width).
COUNTER_CONVERGED_STRATA = "converged_strata"
#: Campaign shards answered by the content-addressed store.
COUNTER_STORE_HITS = "store_hits"
#: Store lookups for slices no generation of which is stored (cold).
COUNTER_STORE_MISSES = "store_misses"
#: Store lookups for slices whose stored generation was superseded by
#: a module/failure-spec edit (the delta a compositional run re-runs).
COUNTER_STORE_INVALIDATED = "store_invalidated"
#: New shard files written to the store this run.
COUNTER_STORE_WRITES = "store_writes"
#: Stale (superseded) shard generations seen by gc/lint.
COUNTER_STORE_STALE = "store_stale"
#: Injected runs resumed from a golden-prefix checkpoint.
COUNTER_RESUMED = "resumed"
#: Injected runs replayed from the start of their test case.
COUNTER_REPLAYED = "replayed"
#: Resumed runs stopped early because their (state, counts) rejoined
#: the golden trail.
COUNTER_REJOINED = "rejoined"
#: Resumed runs stopped early because their (state, counts) reached a
#: boundary an earlier injected run of the same ``run_campaign`` call
#: checked (the suffix memo of ``Checkpoint.resume``).
COUNTER_CONVERGED = "converged"
#: Units the rejoined and converged runs did not execute.
COUNTER_UNITS_SKIPPED = "units_skipped"
#: Units the resumed runs executed: each run's end boundary minus its
#: checkpoint's, counted once per run (the unit loop counts nothing).
COUNTER_UNITS = "units"
#: Boundary checks of resumed runs that pickled and digested the state
#: (:meth:`repro.injection.golden.Checkpoint.resume`).
COUNTER_CHECKS = "checks"
#: Checkpoint restores: resumed runs' states unpickled from a
#: golden-prefix snapshot.
COUNTER_RESTORES = "restores"
#: Pickled state bytes those checks digested.
COUNTER_CHECK_BYTES = "check_bytes"
#: Campaign shards answered by a sibling campaign's dual run (records
#: handed over in memory, then stored) instead of executing.
COUNTER_SIBLING = "sibling"
