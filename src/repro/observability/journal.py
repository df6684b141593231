"""Append-only JSONL trace journal, torn-tail tolerant.

The trace journal's durability contract:

* one JSON line per record, appended and flushed as each span
  completes, so a process killed mid-flight keeps every span finished
  so far;
* a torn final line (the kill itself) -- or any other unparseable
  line -- is skipped on load; the surviving records are exactly the
  spans that were durably written;
* ``meta`` records carry per-process context (format version, wall
  anchor); the **last** meta per pid wins, so a journal reused across
  runs describes the run that wrote last.

Worker processes write *shard-local* journals (``worker-<pid>.jsonl``
inside a spill directory) rather than contending on one file;
:func:`merge_worker_traces` folds them back into the main journal in a
deterministic order -- sorted by ``(start_ns, pid, span_id)`` -- so
the merged trace is byte-stable for a given set of shard files no
matter how the scheduler interleaved the workers.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.observability.tracer import SpanRecord

__all__ = ["TraceJournal", "load_trace", "merge_worker_traces"]

_FORMAT = "repro.observability.trace"
_VERSION = 1


class TraceJournal:
    """An append-only JSONL file of span and meta records."""

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def _append_line(self, payload: dict) -> None:
        line = json.dumps(payload, separators=(",", ":"), allow_nan=False)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fp:
            fp.write(line + "\n")
            fp.flush()

    def append_meta(self, **extra) -> None:
        """Record per-process context (last meta per pid wins on load)."""
        self._append_line(
            {
                "k": "meta",
                "format": _FORMAT,
                "version": _VERSION,
                "pid": os.getpid(),
                **extra,
            }
        )

    def append_span(self, record: SpanRecord) -> None:
        """Durably record one completed span."""
        self._append_line(record.to_dict())

    def append_counters(self, counters: dict) -> None:
        """Record tracer-level (outside-any-span) counter totals."""
        if counters:
            self._append_line(
                {"k": "counters", "pid": os.getpid(), "counters": counters}
            )

    def load(self) -> tuple[list[SpanRecord], dict[int, dict], dict[str, float]]:
        """Spans, last-wins metas per pid, and orphan counter totals.

        Unparseable lines -- typically one torn tail line from a killed
        writer -- are skipped, as are structurally invalid records; a
        corrupted journal degrades to the spans that survived, never to
        an exception.
        """
        spans: list[SpanRecord] = []
        metas: dict[int, dict] = {}
        counters: dict[str, float] = {}
        if not self.path.exists():
            return spans, metas, counters
        with open(self.path, encoding="utf-8") as fp:
            for line in fp:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(payload, dict):
                    continue
                kind = payload.get("k")
                if kind == "span":
                    try:
                        spans.append(SpanRecord.from_dict(payload))
                    except (KeyError, TypeError, ValueError):
                        continue
                elif kind == "meta":
                    pid = payload.get("pid")
                    if isinstance(pid, int):
                        metas[pid] = payload
                elif kind == "counters":
                    extra = payload.get("counters")
                    if isinstance(extra, dict):
                        for name, value in extra.items():
                            if isinstance(value, (int, float)):
                                counters[name] = counters.get(name, 0) + value
        return spans, metas, counters

    def load_spans(self) -> list[SpanRecord]:
        """Just the spans, in deterministic merged order."""
        spans, _, _ = self.load()
        return sort_spans(spans)

    def clear(self) -> None:
        self.path.unlink(missing_ok=True)


def sort_spans(spans: list[SpanRecord]) -> list[SpanRecord]:
    """The canonical cross-process span order: (start, pid, id)."""
    return sorted(spans, key=lambda s: (s.start_ns, s.pid, s.span_id))


def load_trace(path: str | pathlib.Path) -> list[SpanRecord]:
    """Load a trace journal (or a spill directory) as sorted spans."""
    target = pathlib.Path(path)
    if target.is_dir():
        spans: list[SpanRecord] = []
        for shard in sorted(target.glob("*.jsonl")):
            spans.extend(TraceJournal(shard).load()[0])
        return sort_spans(spans)
    return TraceJournal(target).load_spans()


def merge_worker_traces(
    journal: TraceJournal, directory: str | pathlib.Path, remove: bool = True
) -> int:
    """Fold shard-local worker journals into the main journal.

    Spans from every ``*.jsonl`` shard in ``directory`` are appended to
    ``journal`` sorted by ``(start_ns, pid, span_id)``, so the merge is
    deterministic for a given set of shard files regardless of worker
    scheduling.  Returns the number of spans merged; shard files (and
    the directory, when emptied) are deleted afterwards unless
    ``remove`` is false.
    """
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return 0
    shards = sorted(directory.glob("*.jsonl"))
    merged: list[SpanRecord] = []
    counters: dict[str, float] = {}
    metas: dict[int, dict] = {}
    for shard in shards:
        spans, shard_metas, orphans = TraceJournal(shard).load()
        merged.extend(spans)
        metas.update(shard_metas)
        for name, value in orphans.items():
            counters[name] = counters.get(name, 0) + value
    for pid in sorted(metas):
        meta = {
            k: v
            for k, v in metas[pid].items()
            if k not in ("k", "format", "version", "pid")
        }
        journal.append_meta(**{**meta, "pid": pid})
    for record in sort_spans(merged):
        journal.append_span(record)
    journal.append_counters(counters)
    if remove:
        for shard in shards:
            shard.unlink(missing_ok=True)
        try:
            directory.rmdir()
        except OSError:
            pass
    return len(merged)
