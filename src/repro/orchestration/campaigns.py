"""Sharded, checkpointed execution of fault injection campaigns.

A campaign enumerates runs in a fixed canonical order -- variable,
then bit, then injection time, then test case (the serial loop of
:meth:`repro.injection.campaign.Campaign._run_serial`).  The shard
planner cuts that enumeration at ``(variable, bit)`` granularity into
consecutive batches, so concatenating shard results *in shard order*
reproduces the serial record order exactly, whatever order the shards
actually finished in.  Targets are deterministic per test case and a
run has no other randomness, so the merged result is bit-identical to
the serial campaign for any worker count.

The default shard size is one ``(variable, bit)`` pair per task.  That
keeps shard boundaries -- and therefore journal fingerprints --
independent of the worker count, so a campaign journaled at
``jobs=8`` resumes correctly at ``jobs=2``.

Shard granularity also respects static pruning classes for free:
:mod:`repro.analysis.prune` verdicts are uniform across injection
times and test cases, so a pruned point is a whole ``(variable, bit)``
pair -- exactly the planner's unit.  A pruned campaign passes its
surviving pairs via ``pairs=``; no shard ever straddles an
equivalence class, and because per-pair fingerprints ignore the
config's prune settings, shards journaled by an exhaustive campaign
are reused verbatim by a pruned one (and vice versa).

A shard whose injected faults keep killing the worker process is
quarantined by the pool after its retries; the campaign then
synthesises one crash record per planned run in the shard
(``crashed=True``/``failed=True``, the campaign's standing definition
of a crash) rather than losing the whole campaign to one pathological
fault.
"""

from __future__ import annotations

import warnings
from collections import Counter

from repro import observability as obs
from repro.injection.bitflip import BitFlip, flip_values_batch
from repro.injection.campaign import Campaign, CampaignResult, ExperimentRecord
from repro.injection.golden import Checkpoint, GoldenRun, golden_runs_for
from repro.observability import names
from repro.orchestration.journal import Journal
from repro.orchestration.pool import SerialPool, WorkerPool
from repro.orchestration.tasks import Task, TaskGraph, _chunk, fingerprint_of

__all__ = ["plan_pairs", "plan_shards", "run_campaign"]

#: pair = (variable name, kind, bit position)
Pair = tuple[str, str, int]


def plan_pairs(campaign: Campaign) -> list[Pair]:
    """Every (variable, bit) the campaign will flip, canonical order."""
    return [
        (spec.name, spec.kind, bit)
        for spec in campaign._targeted_specs()
        for bit in campaign._bits_for(spec)
    ]


def plan_shards(
    campaign: Campaign,
    shard_size: int = 1,
    pairs: list[Pair] | None = None,
) -> list[tuple[Pair, ...]]:
    """Cut the pair enumeration into consecutive run-batches.

    ``pairs`` restricts the plan to an explicit subset (a prune plan's
    surviving pairs) while keeping the canonical order.
    """
    return _chunk(plan_pairs(campaign) if pairs is None else list(pairs), shard_size)


def _injection_hints(
    campaign: Campaign,
    name: str,
    kind: str,
    bit: int,
    golden_runs: dict[int, GoldenRun],
) -> dict[tuple[int, int], tuple]:
    """``(time, test_case) -> (golden value, flipped value)`` for one pair.

    The shard data plane: the golden value of the injected variable at
    every (injection time, test case) cell of the pair is known before
    any run starts, so all the cells' flips are computed by one
    vectorized XOR (:func:`flip_values_batch`) instead of one
    pack/unpack per run.  The harness still verifies the live value
    matches the golden one before using a hint, so cells where the two
    diverge (or where the variable is absent) simply fall back.
    """
    config = campaign.config
    probe = config.injection_probe
    cells: list[tuple[int, int]] = []
    values: list = []
    for injection_time in config.injection_times:
        for tc in config.test_cases:
            sample = golden_runs[tc].sample_at(probe, injection_time)
            if sample is None or name not in sample.variables:
                continue
            cells.append((injection_time, tc))
            values.append(sample.variables[name])
    flipped = flip_values_batch(values, kind, bit)
    return {
        cell: (value, injected)
        for cell, value, injected in zip(cells, values, flipped)
    }


def _execute_shard(
    campaign: Campaign,
    pairs: tuple[Pair, ...],
    golden_runs: dict[int, GoldenRun],
    checkpoints: dict[tuple[int, int], Checkpoint],
) -> list[ExperimentRecord]:
    """Worker body: the serial inner loops for one shard's pairs."""
    records: list[ExperimentRecord] = []
    tally: Counter = Counter()
    with obs.span(names.CAMPAIGN_SHARD, pairs=len(pairs)) as shard_span:
        for name, kind, bit in pairs:
            records.extend(
                campaign._run_pair(
                    BitFlip(name, kind, bit),
                    golden_runs,
                    checkpoints,
                    _injection_hints(campaign, name, kind, bit, golden_runs),
                    tally,
                )
            )
        shard_span.count("runs", len(records))
        shard_span.count("failures", sum(1 for r in records if r.failed))
        campaign._count_resumes(shard_span, checkpoints, len(pairs), tally)
    return records


def _crash_records(
    campaign: Campaign, pairs: tuple[Pair, ...]
) -> list[ExperimentRecord]:
    """Records for a quarantined shard: every planned run crashed."""
    records: list[ExperimentRecord] = []
    for name, kind, bit in pairs:
        flip = BitFlip(name, kind, bit)
        for injection_time in campaign.config.injection_times:
            for tc in campaign.config.test_cases:
                records.append(
                    ExperimentRecord(
                        test_case=tc,
                        flip=flip,
                        injection_time=injection_time,
                        sample=None,
                        failed=True,
                        crashed=True,
                        temporal_impact=0,
                        deviated=True,
                    )
                )
    return records


def run_campaign(
    campaign: Campaign,
    pool: WorkerPool | None = None,
    journal: Journal | None = None,
    shard_size: int = 1,
    pairs: list[Pair] | None = None,
    golden_runs: dict[int, GoldenRun] | None = None,
    store=None,
) -> CampaignResult:
    """Execute a campaign through a worker pool, optionally journaled.

    Returns a :class:`CampaignResult` bit-identical to
    ``campaign.run()`` serial execution (absent quarantined shards).
    The result additionally carries an ``orchestration`` attribute
    summarising the schedule: total/executed/cached/stored task counts
    and the ids of quarantined shards.  ``pairs`` restricts execution
    to an explicit pair subset (pruned campaigns); ``golden_runs``
    reuses already-captured golden runs.

    ``store`` (a :class:`repro.injection.store.CampaignStore`) makes
    the run a delta operation: each shard's records are looked up
    under its content address -- module source-closure fingerprint +
    failure-spec fingerprint + probes + config slice + pairs -- and
    only shards whose address misses execute.  Because the address
    drops the config's variable/bit selection (the shard's pairs carry
    those) and shards are pair-anchored, exhaustive, pruned and
    sampled campaigns of the same slice all share store entries.  A
    target without declared module source closures
    (:meth:`~repro.targets.base.TargetSystem.module_sources`) is not
    store-eligible; the run warns and proceeds storeless.  When every
    shard is already stored, golden-run and checkpoint capture are
    skipped entirely -- the warm-path fast lane the delta bench
    measures.

    Executed cells resume from golden-prefix checkpoints
    (:meth:`Campaign._capture_checkpoints`, captured once per call and
    handed to every shard like the golden runs) instead of replaying
    their test case from the start; the records are bit-identical
    either way.
    """
    if pool is None:
        pool = SerialPool()
    config = campaign.config
    store_base = None
    if store is not None:
        store_base = campaign.store_key_base()
        if store_base is None:
            from repro.injection.store import StoreEligibilityWarning

            warnings.warn(
                f"target {campaign.target.name!r} declares no module "
                "source closures (module_sources) or is otherwise not "
                "fingerprintable; running without the campaign store",
                StoreEligibilityWarning,
                stacklevel=2,
            )
            store = None
    counters_before = dict(store.counters) if store is not None else None
    with obs.span("campaign.plan", target=campaign.target.name):
        shards = plan_shards(campaign, shard_size, pairs)
        store_fingerprints: list[str | None] = [None] * len(shards)
        store_keys: list[dict | None] = [None] * len(shards)
        fully_stored = False
        if store is not None:
            with obs.span(
                names.STORE_RESOLVE, target=campaign.target.name
            ) as resolve_span:
                store_keys = [
                    {**store_base, "pairs": [list(pair) for pair in shard]}
                    for shard in shards
                ]
                store_fingerprints = [
                    fingerprint_of(key) for key in store_keys
                ]
                contained = sum(
                    1 for fp in store_fingerprints if store.contains(fp)
                )
                fully_stored = bool(shards) and contained == len(shards)
                resolve_span.count("shards", len(shards))
                resolve_span.count(names.COUNTER_STORE_HITS, contained)
        if golden_runs is None:
            if fully_stored:
                # Every shard loads from the store: no run will execute,
                # so the golden runs would never be consulted.  Skipping
                # their capture is what makes a warm delta run pay only
                # for the edited module.
                golden_runs = {}
            else:
                golden_runs = golden_runs_for(
                    campaign.target, config.test_cases
                )
    # Executed cells resume from golden-prefix checkpoints: each test
    # case's fault-free prefix is stepped once here, not once per cell.
    checkpoints = (
        campaign._capture_checkpoints() if shards and not fully_stored else {}
    )
    # Per-pair records do not depend on the prune settings (a pair that
    # executes computes the same records either way), so fingerprints
    # drop them: journal shards stay shareable between exhaustive and
    # pruned campaigns.
    fingerprint_config = config.to_dict()
    for key in ("prune", "audit_fraction", "audit_seed"):
        fingerprint_config.pop(key, None)
    base = {
        "schema": 1,
        "target": campaign.target.name,
        "config": fingerprint_config,
    }
    # The injected module's source closure and the failure spec decide
    # the records too: with them in the fingerprint, a journal written
    # before a target edit misses instead of replaying stale shards.
    # Targets that are not store-eligible keep the config-only key.
    source_key = store_base
    if source_key is None and journal is not None:
        source_key = campaign.store_key_base()
    if source_key is not None:
        base["module_fingerprint"] = source_key["module_fingerprint"]
        base["failure_fingerprint"] = source_key["failure_fingerprint"]
    # Shard ids anchor to the full enumeration (first pair's position),
    # not the shard's position in this run's possibly-restricted pair
    # list: a pruned campaign then hits the same journal entries an
    # exhaustive one wrote, and vice versa.
    position = {pair: i for i, pair in enumerate(plan_pairs(campaign))}
    tasks = [
        Task(
            task_id=f"campaign:{position.get(pairs[0], index):05d}",
            fingerprint=fingerprint_of(
                {**base, "pairs": [list(pair) for pair in pairs]}
            ),
            fn=_execute_shard,
            args=(campaign, pairs, golden_runs, checkpoints),
            weight=len(pairs)
            * len(config.injection_times)
            * len(config.test_cases),
            store_fingerprint=store_fingerprints[index],
            store_key=store_keys[index],
        )
        for index, pairs in enumerate(shards)
    ]
    graph = TaskGraph(
        tasks,
        encode=lambda records: [record.to_dict() for record in records],
        decode=lambda payload: [
            ExperimentRecord.from_dict(entry) for entry in payload
        ],
    )
    outcomes = graph.run(pool, journal, store=store)

    records: list[ExperimentRecord] = []
    quarantined: list[str] = []
    cached = 0
    stored = 0
    with obs.span("campaign.merge", shards=len(shards)) as merge_span:
        for task, pairs in zip(tasks, shards):
            outcome = outcomes[task.task_id]
            if outcome.status == "quarantined":
                quarantined.append(task.task_id)
                records.extend(_crash_records(campaign, pairs))
            else:
                if outcome.status == "cached":
                    cached += 1
                elif outcome.status == "stored":
                    stored += 1
                records.extend(outcome.result)
        merge_span.count("records", len(records))
        merge_span.count("cached_shards", cached)
        merge_span.count("stored_shards", stored)
        merge_span.count("quarantined_shards", len(quarantined))
    result = CampaignResult(
        campaign.target.name,
        config,
        records,
        golden_runs,
        campaign.variable_specs,
    )
    result.orchestration = {  # type: ignore[attr-defined]
        "tasks": len(tasks),
        "executed": len(tasks) - cached - stored - len(quarantined),
        "cached": cached,
        "stored": stored,
        "quarantined": quarantined,
        "jobs": pool.jobs,
    }
    if store is not None:
        with obs.span(
            names.STORE_SYNC,
            target=campaign.target.name,
            root=str(store.root),
        ) as sync_span:
            delta = {
                key: store.counters[key] - counters_before[key]
                for key in store.counters
            }
            sync_span.count(names.COUNTER_STORE_HITS, delta["hits"])
            sync_span.count(names.COUNTER_STORE_MISSES, delta["misses"])
            sync_span.count(
                names.COUNTER_STORE_INVALIDATED, delta["invalidated"]
            )
            sync_span.count(names.COUNTER_STORE_WRITES, delta["writes"])
        result.orchestration["store"] = delta  # type: ignore[attr-defined]
    return result
