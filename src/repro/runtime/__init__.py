"""Detector serving: the deployment half of the methodology.

The paper defines a detector as "a program component that asserts the
validity of a predicate in a program at a given location" (Section I).
:mod:`repro.core` generates those predicates offline; this package is
what a production system runs:

* :mod:`repro.runtime.compile` -- lowers a
  :class:`~repro.core.predicate.Predicate` AST into a NumPy-vectorised
  batch evaluator and a generated-Python scalar closure, with a
  correctness-checked fallback to interpreted evaluation;
* :mod:`repro.runtime.registry` -- versioned publish/lookup/persist of
  detectors, built on :mod:`repro.core.serialize`, so the team that
  mines a detector is decoupled from the service that installs it;
* :mod:`repro.runtime.engine` -- a streaming evaluation engine that
  micro-batches incoming module states into instance arrays, fans out
  across the registered detectors, isolates per-detector faults (a
  crashing predicate degrades to "no detection", never takes the
  engine down) and supports enable/disable at runtime;
* :mod:`repro.runtime.metrics` -- per-detector evaluation counts,
  detection counts and latency histograms (p50/p95/p99), exported as
  a plain-dict report for scraping;
* :mod:`repro.runtime.pack` -- dict-state to instance-array packing
  with the predicate algebra's missing/NaN semantics.

The compiled and interpreted paths are bit-identical by construction
(and re-checked at compile time); ``benchmarks/runtime_bench.py``
measures the resulting throughput gap on the Table II detectors.
"""

from repro.runtime.compile import CompiledPredicate, compile_predicate
from repro.runtime.engine import BatchResult, DetectorFault, StreamingEngine
from repro.runtime.metrics import (
    DetectorStats,
    LatencyHistogram,
    RuntimeMetrics,
)
from repro.runtime.pack import build_index, pack_states, state_value
from repro.runtime.registry import (
    DetectorRegistry,
    RegisteredDetector,
    RegistryError,
)

__all__ = [
    "BatchResult",
    "CompiledPredicate",
    "DetectorFault",
    "DetectorRegistry",
    "DetectorStats",
    "LatencyHistogram",
    "RegisteredDetector",
    "RegistryError",
    "RuntimeMetrics",
    "StreamingEngine",
    "build_index",
    "compile_predicate",
    "pack_states",
    "state_value",
]
