"""Sharded, stored execution of fault injection campaigns.

:func:`run_campaign` executes every batch of the one campaign loop,
:meth:`Campaign.run <repro.injection.campaign.Campaign.run>` (plan,
draw, execute, assemble): an exhaustive or pruned run hands it one
batch of pairs, a sampled run one batch per round, and the loop then
merges the batches' records with the synthesized ones and sums their
``orchestration`` summaries.

A campaign enumerates runs in a fixed canonical order -- variable,
then bit, then injection time, then test case (the paper's loop).
The shard planner cuts that enumeration into one shard per
``(variable, bit)`` pair, so concatenating shard results *in shard
order* reproduces the canonical record order exactly, whatever order
the shards actually finished in.  Targets are deterministic per test
case and a run has no other randomness, so the merged result is
bit-identical for any worker count.

One pair per shard keeps shard boundaries -- and therefore store
addresses -- independent of the worker count and of the pair subset
a run selects, so a campaign stored at ``jobs=8`` resumes correctly
at ``jobs=2``.

Shard granularity also respects static pruning classes for free:
:mod:`repro.analysis.prune` verdicts are uniform across injection
times and test cases, so a pruned point is a whole ``(variable, bit)``
pair -- exactly the planner's unit.  A pruned campaign passes its
surviving pairs via ``pairs=``; no shard ever straddles an
equivalence class, and because store addresses ignore the config's
prune settings, shards stored by an exhaustive campaign are reused
verbatim by a pruned one (and vice versa).

A store-backed campaign that injects at the entry executes its shards
*dual* when it has a sibling (:meth:`Campaign._sibling`: the same
runs sampled at the other location, Table II's X1/X2 pairs) whose
shard is neither stored nor already handed over: one harness samples
both probes, and the shard returns the sibling's records next to its
own.  The parent keeps them on the store instance
(``CampaignStore.siblings``) under the sibling shard's content
address; when the sibling campaign runs against the same store
instance, those shards take the records instead of executing and
are put to the store before any shard executes.  Nothing is written
for a sibling that never runs, and a store opened with
``hand_off=False`` never runs dual.

A shard whose injected faults keep killing the worker process is
quarantined by the pool after its retries; the campaign then
synthesises one crash record per planned run in the shard
(``crashed=True``/``failed=True``, the campaign's standing definition
of a crash) rather than losing the whole campaign to one pathological
fault.  Without a pool the run has no such boundary: it is the plain
in-process loop, and an exception raised by campaign code propagates.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import warnings
from collections import Counter

from repro import observability as obs
from repro.injection.bitflip import BitFlip
from repro.injection.campaign import Campaign, CampaignResult, ExperimentRecord
from repro.injection.golden import Checkpoint, GoldenRun, golden_runs_for
from repro.observability import names
from repro.orchestration.pool import SerialPool, TaskOutcome, WorkerPool
from repro.orchestration.tasks import Task, TaskGraph, fingerprint_of

__all__ = ["plan_pairs", "plan_shards", "records_by_pair", "run_campaign"]

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
    campaign: Campaign, pairs: list[Pair] | None = None
) -> list[tuple[Pair, ...]]:
    """One shard per pair of the enumeration, in canonical order.

    ``pairs`` restricts the plan to an explicit subset (a prune plan's
    surviving pairs, a sampling round's draws).
    """
    return [(pair,) for pair in (plan_pairs(campaign) if pairs is None else pairs)]


def records_by_pair(
    campaign: Campaign, pairs: list[Pair], records: list[ExperimentRecord]
) -> dict[tuple[str, int], list[ExperimentRecord]]:
    """``(variable, bit) -> records`` of a :func:`run_campaign` over
    ``pairs``: each pair's cells are consecutive, in (injection time,
    test case) order."""
    config = campaign.config
    n = len(config.injection_times) * len(config.test_cases)
    return {
        (name, bit): records[index * n:(index + 1) * n]
        for index, (name, _kind, bit) in enumerate(pairs)
    }


#: A shard's result: its records, and its sibling's records when it
#: ran dual (else ``None``).
ShardResult = tuple[list[ExperimentRecord], list[ExperimentRecord] | None]

#: Identifies a :func:`run_campaign` call in its shard arguments.
_CALLS = itertools.count()

#: This process's suffix memo: ``(call token, test case -> memo)``.
#: One slot, so a worker process keeps only the memo of the call
#: whose shards it ran last.
_MEMO: tuple[tuple[int, int], dict] | None = None


def _suffix_memo(token: tuple[int, int]) -> dict:
    """The suffix memo of call ``token`` in this process, fresh on the
    call's first shard here (:meth:`Checkpoint.resume`)."""
    global _MEMO
    if _MEMO is None or _MEMO[0] != token:
        _MEMO = (token, {})
    return _MEMO[1]


def _drop_memo(token: tuple[int, int]) -> None:
    """End call ``token``'s suffix memo in this process."""
    global _MEMO
    if _MEMO is not None and _MEMO[0] == token:
        _MEMO = None


def _execute_shard(
    campaign: Campaign,
    pairs: tuple[Pair, ...],
    golden_runs: dict[int, GoldenRun],
    checkpoints: dict[tuple[int, int], Checkpoint],
    token: tuple[int, int],
    sibling: Campaign | None = None,
) -> ShardResult:
    """Worker body: the serial inner loops for one shard's pairs; with
    ``sibling`` every run also yields the sibling's record.  Resumed
    runs share the suffix memo of call ``token`` with every shard of
    the call that runs in this process."""
    records: list[ExperimentRecord] = []
    sibling_records = None if sibling is None else []
    tally: Counter = Counter()
    memo = _suffix_memo(token)
    with obs.span(
        names.CAMPAIGN_SHARD, target=campaign.target.name, pairs=len(pairs)
    ) as shard_span:
        for name, kind, bit in pairs:
            cells = campaign._run_pair(
                BitFlip(name, kind, bit),
                golden_runs,
                checkpoints,
                tally,
                sibling,
                memo,
            )
            if sibling is None:
                records.extend(cells)
            else:
                records.extend(cells[0])
                sibling_records.extend(cells[1])
        shard_span.count("runs", len(records))
        shard_span.count("failures", sum(1 for r in records if r.failed))
        campaign._count_resumes(shard_span, checkpoints, len(pairs), tally)
    return records, sibling_records


def _encode_shard(result: ShardResult) -> list[dict]:
    return [record.to_dict() for record in result[0]]


def _decode_shard(payload: list[dict]) -> ShardResult:
    return [ExperimentRecord.from_dict(entry) for entry in payload], None


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


def _make_dual(
    tasks: list[Task],
    resolved: dict,
    sibling: Campaign,
    store_base: dict,
    store,
) -> dict[str, str]:
    """Make each executing task run dual whose sibling shard is neither
    stored nor handed over yet (``tasks`` is updated in place); returns
    ``task id -> sibling shard fingerprint`` of those tasks."""
    # The sibling shares the target and module, so it shares the
    # content fingerprints; only the sample side of its key differs.
    sibling_base = sibling._store_key_base(
        store_base["module_fingerprint"], store_base["failure_fingerprint"]
    )
    fingerprints: dict[str, str] = {}
    for index, task in enumerate(tasks):
        if task.task_id in resolved:
            continue
        fingerprint = fingerprint_of({**sibling_base, "pairs": task.key["pairs"]})
        if fingerprint in store.siblings or store.contains(fingerprint):
            continue
        fingerprints[task.task_id] = fingerprint
        tasks[index] = dataclasses.replace(task, args=task.args + (sibling,))
    return fingerprints


def run_campaign(
    campaign: Campaign,
    pool: WorkerPool | None = None,
    pairs: list[Pair] | None = None,
    golden_runs: dict[int, GoldenRun] | None = None,
    checkpoints: dict[tuple[int, int], Checkpoint] | None = None,
    store=None,
) -> CampaignResult:
    """Execute a campaign through a worker pool, optionally stored.

    Returns a :class:`CampaignResult` whose records are bit-identical
    for any pool (absent quarantined shards); without a pool the run
    is serial in-process and a raising shard raises.  The result
    additionally carries an ``orchestration`` attribute summarising
    the schedule: total/executed/stored/sibling task counts and the
    ids of quarantined shards.  ``pairs`` restricts execution to an
    explicit pair subset (pruned and sampled campaigns);
    ``golden_runs`` reuses already-captured golden runs.

    ``store`` (a :class:`repro.injection.store.CampaignStore`) makes
    the run a delta operation: each shard's records are looked up
    under its content address -- module source-closure fingerprint +
    failure-spec fingerprint + probes + config slice + pairs -- and
    only shards whose lookup misses execute, each stored as it
    completes.  Because the address drops the config's variable/bit
    selection (the shard's pairs carry those) and shards are
    pair-anchored, exhaustive, pruned and sampled campaigns of the
    same slice all share store entries, and re-running a killed
    campaign against its store resumes it.  A target without declared
    module source closures
    (:meth:`~repro.targets.base.TargetSystem.module_sources`) is not
    store-eligible; the run warns and proceeds storeless.  When every
    shard loads from the store, golden-run and checkpoint capture are
    skipped entirely -- the warm-path fast lane the delta bench
    measures.

    With a store that hands off (the default), a campaign that has a
    sibling (:meth:`Campaign._sibling`) hands records over in both
    directions: its executing shards run dual unless the sibling's
    shard is stored or handed over already, and the sibling's
    records wait in ``store.siblings``; its own shards that the store
    lacks take records a sibling run left there (``"sibling"`` in the
    summary) and are put at once.

    Executed cells resume from golden-prefix checkpoints
    (:meth:`Campaign._capture_checkpoints`, handed to every shard like
    the golden runs) instead of replaying their test case from the
    start; the records are bit-identical either way.  They are
    captured once, when the first shard executes, into
    ``checkpoints`` if given: callers that run several pair subsets
    (sampling rounds, the prune audit) share one capture.
    """
    if pool is None:
        pool = SerialPool(isolate=False)
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
    sibling = (
        campaign._sibling()
        if store is not None and store.siblings is not None
        else None
    )
    stored = 0
    token = (os.getpid(), next(_CALLS))
    # Shard arguments share these two mappings; they are filled in
    # place once the store lookups show that some shard executes.
    shard_golden: dict[int, GoldenRun] = (
        golden_runs if golden_runs is not None else {}
    )
    if checkpoints is None:
        checkpoints = {}
    with obs.span("campaign.plan", target=campaign.target.name):
        shards = plan_shards(campaign, pairs)
        keys: list[dict | None] = [None] * len(shards)
        if store is not None:
            keys = [
                {**store_base, "pairs": [list(pair) for pair in shard]}
                for shard in shards
            ]
        # Shard ids anchor to the full enumeration (first pair's
        # position), not the shard's position in this run's
        # possibly-restricted pair list, so pruned and sampled runs
        # name a shard as the exhaustive run does.
        position = {pair: i for i, pair in enumerate(plan_pairs(campaign))}
        tasks = [
            Task(
                task_id=f"campaign:{position.get(shard[0], index):05d}",
                fingerprint=None if key is None else fingerprint_of(key),
                fn=_execute_shard,
                args=(campaign, shard, shard_golden, checkpoints, token),
                weight=len(shard)
                * len(config.injection_times)
                * len(config.test_cases),
                key=key,
            )
            for index, (shard, key) in enumerate(zip(shards, keys))
        ]
        graph = TaskGraph(tasks, encode=_encode_shard, decode=_decode_shard)
        resolved = {}
        if store is not None:
            with obs.span(
                names.STORE_RESOLVE, target=campaign.target.name
            ) as resolve_span:
                resolved = graph.resolve(store)
                stored = len(resolved)
                # A sibling campaign's dual run may already hold the
                # records of shards the store lacks: put them now, as
                # if they had just executed.
                for task in tasks:
                    if task.task_id in resolved or not store.siblings:
                        continue
                    handed = store.siblings.pop(task.fingerprint, None)
                    if handed is not None:
                        store.put(
                            task.fingerprint, task.key, _encode_shard((handed, None))
                        )
                        resolved[task.task_id] = TaskOutcome(
                            task.task_id, "stored", (handed, None)
                        )
                resolve_span.count("shards", len(shards))
                resolve_span.count(names.COUNTER_STORE_HITS, stored)
                resolve_span.count(names.COUNTER_SIBLING, len(resolved) - stored)
        # A shard the store could not answer -- absent, or torn by a
        # killed writer -- executes, and needs the golden runs.  When
        # every shard loaded, skipping their capture is what makes a
        # warm delta run pay only for the edited module.
        executes = len(resolved) < len(tasks)
        if golden_runs is None and (executes or not tasks):
            shard_golden.update(
                golden_runs_for(campaign.target, config.test_cases)
            )
        sibling_fingerprints: dict[str, str] = {}
        if executes and sibling is not None:
            sibling_fingerprints = _make_dual(
                tasks, resolved, sibling, store_base, store
            )
            graph = TaskGraph(tasks, encode=_encode_shard, decode=_decode_shard)
    if executes and not checkpoints:
        # Executed cells resume from golden-prefix checkpoints: each
        # test case's fault-free prefix is stepped once here, not once
        # per cell.  A campaign with a sibling captures them for both
        # sample probes, so any of its shards may run dual.
        checkpoints.update(campaign._capture_checkpoints(sibling))
    try:
        outcomes = graph.run(pool, store=store, resolved=resolved)
    finally:
        _drop_memo(token)

    records: list[ExperimentRecord] = []
    quarantined: list[str] = []
    with obs.span("campaign.merge", shards=len(shards)) as merge_span:
        for task, shard in zip(tasks, shards):
            outcome = outcomes[task.task_id]
            if outcome.status == "quarantined":
                quarantined.append(task.task_id)
                records.extend(_crash_records(campaign, shard))
                continue
            own, handed = outcome.result
            records.extend(own)
            if handed is not None:
                store.siblings[sibling_fingerprints[task.task_id]] = handed
        merge_span.count("records", len(records))
        merge_span.count("stored_shards", stored)
        merge_span.count("quarantined_shards", len(quarantined))
    result = CampaignResult(
        campaign.target.name,
        config,
        records,
        shard_golden,
        campaign.variable_specs,
    )
    result.orchestration = {  # type: ignore[attr-defined]
        "tasks": len(tasks),
        "executed": len(tasks) - len(resolved) - len(quarantined),
        "stored": stored,
        "sibling": len(resolved) - stored,
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
