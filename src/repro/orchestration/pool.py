"""Worker pools: serial and process-parallel task execution.

Fault injection campaigns are embarrassingly parallel (ZOFI runs
injection campaigns at near-linear speedup across cores), but they are
also *hostile* workloads: an injected fault can take the whole worker
process down with it.  The pools here make that survivable:

* :class:`SerialPool` executes tasks in order, in-process -- the
  reference schedule every parallel schedule must reproduce
  bit-identically;
* :class:`ProcessPool` fans tasks out over a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  A task that
  *raises* fails that task only; a task that *kills its worker* (the
  segfault analogue) breaks the executor, so the pool rebuilds it with
  exponential backoff and resubmits whatever had not finished.  Either
  way a task is retried up to ``max_retries`` times and then
  **quarantined** -- reported as a
  :class:`TaskOutcome` with ``status="quarantined"`` instead of
  poisoning the run -- mirroring the detector quarantine of
  :class:`repro.runtime.engine.StreamingEngine`.

Each task's attempts and seconds come back on its
:class:`TaskOutcome`, and each execution runs under an
``orchestration.task`` span (:mod:`repro.observability`).

:func:`configure` installs a process-wide default worker count that
:meth:`Campaign.run` and :func:`refine` pick up when no explicit pool
is passed -- this is how the experiments CLI's ``--jobs`` flag reaches
every driver without threading parameters through eighteen call
sites.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from collections.abc import Callable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from repro import observability as obs
from repro.orchestration.tasks import Task

__all__ = [
    "TaskOutcome",
    "WorkerPool",
    "SerialPool",
    "ProcessPool",
    "make_pool",
    "configure",
    "default_pool",
    "picklable",
]


@dataclasses.dataclass
class TaskOutcome:
    """Terminal state of one task.

    ``status`` is ``"done"`` (result valid), ``"stored"`` (result
    loaded from a content-addressed campaign store,
    :mod:`repro.injection.store`, without executing) or
    ``"quarantined"`` (the task exhausted its retries; ``error`` holds
    the last failure).
    """

    task_id: str
    status: str
    result: object = None
    error: str | None = None
    attempts: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("done", "stored")


def _invoke(
    fn: Callable,
    args: tuple,
    task_id: str | None = None,
    trace=None,
) -> tuple[float, object]:
    """Worker-side shim: run the task and time it where it ran.

    ``trace`` (a :class:`repro.observability.TraceSpec`, shipped by
    the submitting pool when tracing is active) makes the worker
    journal its spans to a shard-local file; each task runs under an
    ``orchestration.task`` span either way, which is a no-op while
    tracing is off.
    """
    obs.ensure_worker(trace)
    started = time.perf_counter()
    if task_id is None:
        result = fn(*args)
    else:
        with obs.span("orchestration.task", task=task_id):
            result = fn(*args)
    return time.perf_counter() - started, result


class WorkerPool:
    """Common retry/quarantine machinery for the pools."""

    jobs: int = 1

    def __init__(
        self,
        max_retries: int = 2,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.max_retries = max_retries
        self.backoff = backoff
        self.max_backoff = max_backoff

    def run(
        self,
        tasks: Sequence[Task],
        on_result: Callable[[Task, TaskOutcome], None] | None = None,
    ) -> dict[str, TaskOutcome]:
        """Execute ``tasks``, calling ``on_result`` as each finishes."""
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- shared bookkeeping --------------------------------------------
    def _sleep(self, failures: int) -> None:
        if self.backoff > 0:
            time.sleep(min(self.backoff * (2 ** (failures - 1)), self.max_backoff))


class SerialPool(WorkerPool):
    """In-process execution in task order: the reference schedule.

    ``isolate=False`` drops the retry/quarantine boundary: a task that
    raises propagates its exception out of :meth:`run`, as a plain
    loop would.  In-process, an exception is a bug in the calling
    code, not a fault that killed a worker, so retrying it (and
    re-running its side effects) or turning it into a quarantined
    outcome would only hide the bug.
    """

    jobs = 1

    def __init__(
        self,
        max_retries: int = 2,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        isolate: bool = True,
    ) -> None:
        super().__init__(max_retries, backoff, max_backoff)
        self.isolate = isolate

    def run(
        self,
        tasks: Sequence[Task],
        on_result: Callable[[Task, TaskOutcome], None] | None = None,
    ) -> dict[str, TaskOutcome]:
        outcomes: dict[str, TaskOutcome] = {}
        with obs.span("pool.run", kind="serial", jobs=1, tasks=len(tasks)):
            for task in tasks:
                attempts = 0
                while True:
                    attempts += 1
                    try:
                        seconds, result = _invoke(
                            task.fn, task.args, task.task_id
                        )
                    except Exception as exc:  # noqa: BLE001 -- isolation boundary
                        if not self.isolate:
                            raise
                        if attempts > self.max_retries:
                            outcome = TaskOutcome(
                                task_id=task.task_id,
                                status="quarantined",
                                error=f"{type(exc).__name__}: {exc}",
                                attempts=attempts,
                            )
                            break
                        self._sleep(attempts)
                    else:
                        outcome = TaskOutcome(
                            task_id=task.task_id,
                            status="done",
                            result=result,
                            attempts=attempts,
                            seconds=seconds,
                        )
                        break
                outcomes[task.task_id] = outcome
                if on_result is not None:
                    on_result(task, outcome)
        return outcomes


class ProcessPool(WorkerPool):
    """``ProcessPoolExecutor``-backed pool that survives worker death.

    Tasks are submitted in waves; when an injected fault (or anything
    else) kills a worker, the broken executor is torn down, rebuilt
    after an exponential backoff, and every unfinished task is
    resubmitted.  Per-task failure counts persist across rebuilds, so
    the task that keeps killing its worker is eventually quarantined
    while innocent tasks complete on a later wave.
    """

    def __init__(
        self,
        jobs: int,
        max_retries: int = 2,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        mp_context=None,
    ) -> None:
        super().__init__(max_retries, backoff, max_backoff)
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._mp_context = mp_context
        self._executor: ProcessPoolExecutor | None = None

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=self._mp_context
            )
        return self._executor

    def _teardown_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def run(
        self,
        tasks: Sequence[Task],
        on_result: Callable[[Task, TaskOutcome], None] | None = None,
    ) -> dict[str, TaskOutcome]:
        outcomes: dict[str, TaskOutcome] = {}
        pending: dict[str, Task] = {t.task_id: t for t in tasks}
        failures: dict[str, int] = {t.task_id: 0 for t in tasks}
        rebuilds = 0

        def settle(task: Task, outcome: TaskOutcome) -> None:
            outcomes[task.task_id] = outcome
            del pending[task.task_id]
            if on_result is not None:
                on_result(task, outcome)

        def run_wave(batch: Sequence[Task]) -> bool:
            """Run one wave; True when the executor broke.

            A dead worker breaks the whole executor, so *every*
            unfinished future in the wave reports BrokenProcessPool --
            blaming them all would quarantine innocent tasks.  A
            worker-death failure is therefore only charged when the
            batch ran alone (blame is unambiguous); multi-task breakage
            just triggers the isolation pass below.
            """
            nonlocal rebuilds
            executor = self._ensure_executor()
            trace = obs.export_spec()
            futures = {
                executor.submit(
                    _invoke, task.fn, task.args, task.task_id, trace
                ): task
                for task in batch
            }
            broken = False
            remaining = set(futures)
            while remaining:
                finished, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                for future in finished:
                    task = futures[future]
                    try:
                        seconds, result = future.result()
                    except BrokenProcessPool as exc:
                        broken = True
                        if len(futures) == 1:
                            failures[task.task_id] += 1
                            if failures[task.task_id] > self.max_retries:
                                settle(task, TaskOutcome(
                                    task_id=task.task_id,
                                    status="quarantined",
                                    error=f"worker died: {exc}",
                                    attempts=failures[task.task_id],
                                ))
                    except Exception as exc:  # noqa: BLE001 -- isolation
                        failures[task.task_id] += 1
                        if failures[task.task_id] > self.max_retries:
                            settle(task, TaskOutcome(
                                task_id=task.task_id,
                                status="quarantined",
                                error=f"{type(exc).__name__}: {exc}",
                                attempts=failures[task.task_id],
                            ))
                    else:
                        settle(task, TaskOutcome(
                            task_id=task.task_id,
                            status="done",
                            result=result,
                            attempts=failures[task.task_id] + 1,
                            seconds=seconds,
                        ))
            if broken:
                self._teardown_executor()
                rebuilds += 1
                self._sleep(rebuilds)
            return broken

        with obs.span(
            "pool.run", kind="process", jobs=self.jobs, tasks=len(tasks)
        ) as pool_span:
            while pending:
                batch = [task for task in tasks if task.task_id in pending]
                broken = run_wave(batch)
                if broken and len(batch) > 1:
                    # Isolation pass: rerun the survivors one at a time so
                    # the task that keeps killing its worker accumulates
                    # failures (and is eventually quarantined) while the
                    # innocent majority completes.
                    for task in [t for t in tasks if t.task_id in pending]:
                        run_wave([task])
                elif not broken and pending:
                    # Plain task failures: back off before the retry wave.
                    self._sleep(max(failures[tid] for tid in pending))
            pool_span.count("rebuilds", rebuilds)
        # Collate in task order, never completion order.
        return {task.task_id: outcomes[task.task_id] for task in tasks}


def make_pool(jobs: int | None) -> WorkerPool:
    """A pool sized for ``jobs`` workers.

    ``None``/``<=1`` gives the in-process loop,
    ``SerialPool(isolate=False)``: as for a campaign run without a
    pool, an exception raised in this process is a bug to surface, not
    a worker fault to retry.
    """
    if jobs is None or jobs <= 1:
        return SerialPool(isolate=False)
    return ProcessPool(jobs)


def picklable(obj: object) -> bool:
    """Whether ``obj`` can cross a process boundary."""
    try:
        pickle.dumps(obj)
    except Exception:  # noqa: BLE001 -- any pickling failure disqualifies
        return False
    return True


# ----------------------------------------------------------------------
# Process-wide default (the experiments CLI's --jobs)
# ----------------------------------------------------------------------
_DEFAULT_JOBS: int | None = None


def configure(jobs: int | None = None) -> None:
    """Install the process-wide default worker count.

    ``jobs`` makes every :meth:`Campaign.run`/:func:`refine` call
    without an explicit pool run on ``jobs`` workers.  ``configure()``
    with no arguments resets it.
    """
    global _DEFAULT_JOBS
    _DEFAULT_JOBS = jobs


def default_pool() -> WorkerPool | None:
    """A fresh pool per the configured default, or None when serial.

    The caller owns the returned pool and must :meth:`close` it.
    """
    if _DEFAULT_JOBS is None or _DEFAULT_JOBS <= 1:
        return None
    return ProcessPool(_DEFAULT_JOBS)
