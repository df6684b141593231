"""Task model: stable identities, store addresses and the task graph.

The expensive paths of the methodology -- thousands of independent
injection runs per campaign (Step 1), hundreds of independent
cross-validated trials per refinement grid (Step 4) -- decompose into
*tasks*: units of work that carry

* a stable ``task_id`` (``"campaign:00012"``, ``"trial:00040"``) that
  names the unit across runs of the same configuration;
* an optional content ``fingerprint`` -- the task's address in a
  :class:`~repro.injection.store.CampaignStore` -- over everything that
  determines its result (the code it runs included), so a stored
  result is reused exactly when it is still valid;
* a module-level callable plus arguments, picklable into worker
  processes.

:class:`TaskGraph` executes an ordered set of tasks through a
:class:`~repro.orchestration.pool.WorkerPool`, loading the tasks the
store already holds and storing each fresh completion as it lands, so
re-running a killed run against the same store resumes it.  Results
are always collated in *task order*, never completion order, which is
the first half of the subsystem's determinism contract (the second
half is that each task derives any randomness from its own identity,
not from shared mutable state).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Callable, Iterable, Mapping

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

    ``fingerprint`` is the task's content address in a
    :class:`repro.injection.store.CampaignStore` (the fingerprint of
    ``key``); ``None`` means the task is not storable and always
    executes.  ``key`` is the full store key, kept so the store can
    classify a miss as cold vs invalidated and persist provenance with
    the result.  ``fn`` must be a module-level callable (workers import
    it by reference).
    """

    task_id: str
    fingerprint: str | None
    fn: Callable
    args: tuple = ()
    key: object = None


class TaskGraph:
    """An ordered set of independent tasks, optionally stored.

    ``encode``/``decode`` translate task results to/from the
    JSON-compatible payloads the store holds; they default to the
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

    def resolve(self, store) -> dict[str, "TaskOutcome"]:
        """``"stored"`` outcomes of the tasks ``store`` holds, by id.

        Each storable task's entry is read once; a missing or unreadable
        entry leaves its task out (it will execute).
        """
        from repro.orchestration.pool import TaskOutcome

        resolved: dict[str, TaskOutcome] = {}
        if store is None:
            return resolved
        for task in self.tasks:
            if task.fingerprint is None:
                continue
            payload = store.fetch(task.fingerprint, task.key)
            if payload is not None:
                resolved[task.task_id] = TaskOutcome(
                    task_id=task.task_id,
                    status="stored",
                    result=self._decode(payload),
                )
        return resolved

    def run(
        self, pool, store=None, resolved: Mapping | None = None
    ) -> dict[str, "TaskOutcome"]:
        """Execute every task the store does not hold, returning
        outcomes keyed by task id, in task order.

        ``resolved`` is a :meth:`resolve` result the caller already
        looked up; by default the lookup happens here.  Each fresh
        completion is put to the store *as it finishes*, so a run killed
        mid-flight loses nothing completed: running it again against
        the same store resumes it.  The store's index is flushed once,
        when the pool returns or raises.
        """
        if resolved is None:
            resolved = self.resolve(store)
        to_run = [t for t in self.tasks if t.task_id not in resolved]

        def put(task: Task, outcome) -> None:
            if outcome.status == "done" and task.fingerprint is not None:
                store.put(task.fingerprint, task.key, self._encode(outcome.result))

        try:
            fresh = pool.run(to_run, on_result=put if store is not None else None)
        finally:
            # Puts leave the store's index in memory: persist it once
            # per run.
            if store is not None:
                store.flush()
        return {
            task.task_id: resolved.get(task.task_id) or fresh[task.task_id]
            for task in self.tasks
        }


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

