"""Process-safe tracing activation: main process and pool workers.

Tracing state is process-global, but the pipeline spans processes: a
``ProcessPool`` worker must not inherit (via fork) the parent's
file-backed tracer -- two processes appending to one journal would
make the merged order scheduler-dependent.  The protocol here keeps
every process writing its own file:

* the main process activates tracing with :func:`tracing_to`, which
  journals spans to ``path`` and advertises a *worker spill
  directory* through a picklable :class:`TraceSpec`;
* the pool ships the spec (read via :func:`export_spec`) to workers
  alongside each task; the worker-side shim calls
  :func:`ensure_worker`, which installs a shard-local tracer writing
  ``worker-<pid>.jsonl`` into the spill directory -- idempotently, and
  explicitly *replacing* any tracer inherited across a fork;
* when the ``tracing_to`` block closes, the shard journals are merged
  into the main journal in deterministic ``(start, pid, id)`` order
  (:func:`repro.observability.journal.merge_worker_traces`).

A worker that is killed mid-task leaves a torn tail in its shard file;
the merge tolerates it.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from contextlib import contextmanager

from repro.observability.journal import TraceJournal, merge_worker_traces
from repro.observability.tracer import (
    NULL_TRACER,
    Tracer,
    get_tracer,
    set_tracer,
)

__all__ = ["TraceSpec", "export_spec", "ensure_worker", "tracing_to"]


@dataclasses.dataclass(frozen=True)
class TraceSpec:
    """Picklable instruction: 'trace this task into this directory'."""

    directory: str


def export_spec() -> TraceSpec | None:
    """The active tracer's worker spec (None when workers shouldn't trace)."""
    return getattr(get_tracer(), "worker_spec", None)


def ensure_worker(spec: TraceSpec | None) -> None:
    """Make this process's tracer consistent with ``spec``.

    Called by the worker-side task shim before running a task.  With a
    spec, installs (once per process) a tracer journaling to a
    shard-local file in the spill directory.  Without one, drops any
    recording tracer inherited across a fork -- its sink belongs to
    the parent process -- so an untraced run stays untraced and the
    parent's journal is never written from two processes.
    """
    active = get_tracer()
    pid = os.getpid()
    if spec is None:
        if active is not NULL_TRACER and active.pid != pid:
            set_tracer(None)
        return
    if (
        active is not NULL_TRACER
        and active.pid == pid
        and getattr(active, "_shard_directory", None) == spec.directory
    ):
        return
    journal = TraceJournal(pathlib.Path(spec.directory) / f"worker-{pid}.jsonl")
    tracer = Tracer(sink=journal.append_span)
    tracer._shard_directory = spec.directory
    journal.append_meta(role="worker")
    set_tracer(tracer)
    # Lifecycle marker: when this worker first came up (or was rebuilt
    # after a crash -- each rebuild appends another marker).
    with tracer.span("worker.start"):
        pass


@contextmanager
def tracing_to(path, workers: bool = True):
    """Activate file-backed tracing for the duration of the block.

    Spans journal to ``path`` as they complete; with ``workers`` true
    (the default) pool workers journal to shard files under
    ``<path>.workers/``, merged back deterministically when the block
    exits.  Yields the active :class:`Tracer`.
    """
    path = pathlib.Path(path)
    journal = TraceJournal(path)
    spec = None
    worker_dir = None
    if workers:
        worker_dir = path.with_name(path.name + ".workers")
        spec = TraceSpec(str(worker_dir))
    journal.append_meta(role="main")
    tracer = Tracer(sink=journal.append_span, worker_spec=spec)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous if previous is not NULL_TRACER else None)
        journal.append_counters(tracer.counters)
        if worker_dir is not None:
            merge_worker_traces(journal, worker_dir)
