"""Unified observability: tracing and profiling across the pipeline.

The four subsystems of the reproduction -- injection campaigns, the
Step 2-4 mining grid, orchestration, and the runtime serving engine --
are instrumented with one span-based structured tracer:

* :mod:`~repro.observability.tracer` -- spans (context-manager API,
  monotonic clocks, parent/child nesting, attributes and counters),
  the process-global active tracer, and the shared no-op default that
  makes instrumentation near-free when tracing is off;
* :mod:`~repro.observability.journal` -- append-only JSONL trace
  journal (torn-tail tolerant) plus the deterministic worker-shard
  merge;
* :mod:`~repro.observability.context` -- process-safe activation:
  ``tracing_to`` for the main process, ``TraceSpec``/``ensure_worker``
  for pool workers writing shard-local traces;
* :mod:`~repro.observability.export` -- Chrome trace-event JSON, so a
  refine sweep opens in ``about:tracing``/Perfetto;
* :mod:`~repro.observability.summary` -- per-phase totals, per-name
  self-time and counter rollups (``repro trace summarize``).

Contract: results are **bit-identical with tracing on or off** -- the
tracer reads clocks and writes journals; it never touches an RNG, a
dataset, or a result value.  See ``docs/observability.md``.
"""

from repro.observability import names
from repro.observability.context import (
    TraceSpec,
    ensure_worker,
    export_spec,
    tracing_to,
)
from repro.observability.export import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.observability.journal import (
    TraceJournal,
    load_trace,
    merge_worker_traces,
    sort_spans,
)
from repro.observability.summary import (
    NameStats,
    TraceSummary,
    render_summary,
    summarize,
)
from repro.observability.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    count,
    enabled,
    get_tracer,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    "names",
    "Span",
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "tracing_to",
    "span",
    "count",
    "enabled",
    "TraceSpec",
    "export_spec",
    "ensure_worker",
    "TraceJournal",
    "load_trace",
    "merge_worker_traces",
    "sort_spans",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "summarize",
    "render_summary",
    "TraceSummary",
    "NameStats",
]
