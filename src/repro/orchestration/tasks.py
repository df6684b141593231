"""Task model: stable identities, fingerprints and the task graph.

The expensive paths of the methodology -- thousands of independent
injection runs per campaign (Step 1), hundreds of independent
cross-validated trials per refinement grid (Step 4) -- decompose into
*tasks*: units of work that carry

* a stable ``task_id`` (``"campaign:00012"``, ``"trial:00040"``) that
  names the unit across runs of the same configuration;
* a content ``fingerprint`` over everything that determines the task's
  result, so a checkpoint journal can prove a stored result is still
  valid (a changed campaign config or refinement plan changes the
  fingerprint, a changed worker count does not);
* a module-level callable plus arguments, picklable into worker
  processes.

:class:`TaskGraph` executes an ordered set of tasks through a
:class:`~repro.orchestration.pool.WorkerPool`, skipping tasks whose
results a :class:`~repro.orchestration.journal.Journal` already holds
and checkpointing each fresh completion as it lands.  Results are
always collated in *task order*, never completion order, which is the
first half of the subsystem's determinism contract (the second half is
that each task derives any randomness from its own identity, not from
shared mutable state).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Task",
    "TaskGraph",
    "fingerprint_of",
    "derive_seed",
    "estimate_runs",
]


def fingerprint_of(payload: object) -> str:
    """Content fingerprint of a JSON-compatible payload.

    Canonical JSON (sorted keys, no whitespace) hashed with SHA-256;
    two payloads fingerprint equal iff they are structurally equal.
    """
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def derive_seed(seed: int, task_id: str) -> int:
    """Deterministic 63-bit per-task seed.

    Derived from the root seed and the task's *identity* rather than
    its position in any execution schedule, so the stream a task sees
    is the same serial or parallel, whatever the worker count.
    """
    digest = hashlib.sha256(f"{seed}:{task_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclasses.dataclass(frozen=True)
class Task:
    """One schedulable unit of work.

    ``fn`` must be a module-level callable (workers import it by
    reference); ``weight`` is the number of underlying work units
    (injection runs, CV folds) the task covers, reported to metrics.
    """

    task_id: str
    fingerprint: str
    fn: Callable
    args: tuple = ()
    weight: int = 1
    #: Content address in a :class:`repro.injection.store.CampaignStore`
    #: (the fingerprint of ``store_key``); ``None`` opts the task out of
    #: store resolution.  Unlike ``fingerprint`` (journal validity,
    #: config-scoped), the store address is keyed by module *source*
    #: fingerprints, so it survives across processes and editions.
    store_fingerprint: str | None = None
    #: The full store key (kept alongside the fingerprint so the store
    #: can classify a miss as cold vs invalidated and persist audit
    #: provenance with the records).
    store_key: object = None

    @property
    def kind(self) -> str:
        """Task family: the ``task_id`` prefix before the colon."""
        return self.task_id.split(":", 1)[0]


class TaskGraph:
    """An ordered set of independent tasks with optional checkpointing.

    ``encode``/``decode`` translate task results to/from the
    JSON-compatible payloads the journal stores; they default to the
    identity (results must then be JSON-compatible themselves).
    """

    def __init__(
        self,
        tasks: Iterable[Task],
        encode: Callable[[object], object] | None = None,
        decode: Callable[[object], object] | None = None,
    ) -> None:
        self.tasks = list(tasks)
        seen: set[str] = set()
        for task in self.tasks:
            if task.task_id in seen:
                raise ValueError(f"duplicate task id {task.task_id!r}")
            seen.add(task.task_id)
        self._encode = encode if encode is not None else (lambda r: r)
        self._decode = decode if decode is not None else (lambda p: p)

    def __len__(self) -> int:
        return len(self.tasks)

    def run(self, pool, journal=None, store=None) -> dict[str, "TaskOutcome"]:
        """Execute every task, returning outcomes keyed by task id.

        Resolution order per task: the content-addressed ``store``
        (tasks carrying a ``store_fingerprint``) answers first with a
        ``"stored"`` outcome; then the journal's (id, fingerprint)
        entries answer ``"cached"``; everything else executes.  The
        two caches backfill each other -- a store hit is appended to
        the journal (so a later journal-only run resumes instantly)
        and a journal hit is written to the store (so a later store
        run hits) -- and each fresh completion checkpoints to both *as
        it finishes*, so a run killed mid-flight loses nothing
        completed.  The store's index is flushed once, when the pool
        returns or raises.  The returned mapping is ordered by task
        order.
        """
        from repro.orchestration.pool import TaskOutcome

        entries: dict = journal.load() if journal is not None else {}
        resolved: dict[str, TaskOutcome] = {}
        for task in self.tasks:
            payload = None
            status = ""
            if store is not None and task.store_fingerprint is not None:
                payload = store.fetch(task.store_fingerprint, task.store_key)
                if payload is not None:
                    status = "stored"
                    if journal is not None:
                        entry = entries.get(task.task_id)
                        if (
                            entry is None
                            or entry.get("fingerprint") != task.fingerprint
                        ):
                            journal.append(
                                task.task_id, task.fingerprint, payload
                            )
            if payload is None:
                entry = entries.get(task.task_id)
                if entry is not None and entry.get("fingerprint") == task.fingerprint:
                    payload = entry.get("result")
                    status = "cached"
                    if store is not None and task.store_fingerprint is not None:
                        store.put(task.store_fingerprint, task.store_key, payload)
            if payload is not None:
                resolved[task.task_id] = TaskOutcome(
                    task_id=task.task_id,
                    status=status,
                    result=self._decode(payload),
                )
        to_run = [t for t in self.tasks if t.task_id not in resolved]

        def checkpoint(task: Task, outcome: TaskOutcome) -> None:
            if outcome.status != "done":
                return
            wants_store = store is not None and task.store_fingerprint is not None
            if journal is None and not wants_store:
                return
            payload = self._encode(outcome.result)
            if journal is not None:
                journal.append(task.task_id, task.fingerprint, payload)
            if wants_store:
                store.put(task.store_fingerprint, task.store_key, payload)

        try:
            fresh = pool.run(to_run, on_result=checkpoint)
        finally:
            # Puts (backfills above, checkpoints) leave the store's
            # index in memory: persist it once per run.
            if store is not None:
                store.flush()
        ordered: dict[str, TaskOutcome] = {}
        for task in self.tasks:
            outcome = resolved.get(task.task_id)
            ordered[task.task_id] = outcome if outcome is not None else fresh[task.task_id]
        return ordered


def estimate_runs(
    config,
    n_variables: int | None = None,
    default_bits: int = 64,
) -> int | None:
    """Estimated run count of a campaign configuration.

    ``runs = test_cases x injection_times x variables x bits``.  The
    variable count comes from ``config.variables`` when the config
    names its targets, else from ``n_variables`` (e.g. counted off an
    injection-surface report); ``None`` when neither is known.  Bit
    counts beyond a variable's width are clamped by the campaign, so
    this estimates from the configured positions (``default_bits``
    when the config flips every bit, the paper's float64 width).
    """
    if config.variables is not None:
        n_vars = len(config.variables)
    elif n_variables is not None:
        n_vars = n_variables
    else:
        return None
    bits = config.bits
    if bits is None:
        n_bits = default_bits
    elif isinstance(bits, Mapping):
        n_bits = max((len(b) for b in bits.values()), default=default_bits)
    else:
        n_bits = len(bits)
    return (
        len(config.test_cases) * len(config.injection_times) * n_vars * n_bits
    )


def _chunk(items: Sequence, size: int) -> list[tuple]:
    """Split ``items`` into consecutive tuples of at most ``size``."""
    if size < 1:
        raise ValueError(f"shard size must be >= 1, got {size}")
    return [
        tuple(items[start:start + size])
        for start in range(0, len(items), size)
    ]
