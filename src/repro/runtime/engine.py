"""Streaming detector evaluation with micro-batching.

A deployed detector sees one module state at a time, but the compiled
batch evaluators only pay off over arrays; the engine bridges the two:

* ``submit`` buffers incoming states and evaluates a micro-batch once
  ``batch_size`` states are pending (``flush`` drains a partial
  batch); ``evaluate_stream`` wraps the same loop around any iterable
  of states;
* each batch is packed **once** into an instance array over the union
  of the enabled detectors' variables, then fanned out across the
  detectors' compiled evaluators;
* detectors can be enabled/disabled at runtime (a disabled detector
  keeps its registration and metrics but is skipped);
* **error isolation**: a predicate that raises degrades to "no
  detection" for that batch -- the engine records a
  :class:`DetectorFault`, bumps the fault counter and keeps serving
  the remaining detectors; after ``max_faults`` faults a detector is
  auto-disabled (quarantined) so a persistently broken predicate
  cannot drag down every batch.

All activity lands in a :class:`~repro.runtime.metrics.RuntimeMetrics`
instance -- evaluation/detection counts and per-batch latency
histograms per detector -- and in the familiar
``Detector.evaluations``/``Detector.detections`` counters.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro import observability as obs
from repro.core.detector import Detector
from repro.runtime.compile import CompiledPredicate, compile_predicate
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.pack import build_index, pack_states

__all__ = ["BatchResult", "DetectorFault", "StreamingEngine"]


@dataclasses.dataclass(frozen=True)
class DetectorFault:
    """One isolated failure of a served detector."""

    detector: str
    batch: int
    error: str


@dataclasses.dataclass
class BatchResult:
    """Detection vectors for one evaluated micro-batch."""

    batch: int
    size: int
    flags: dict[str, np.ndarray]
    faults: tuple[DetectorFault, ...] = ()

    def any_flags(self) -> np.ndarray:
        """Union verdict: states flagged by at least one detector."""
        out = np.zeros(self.size, dtype=bool)
        for flagged in self.flags.values():
            out |= flagged
        return out

    def detections(self) -> dict[str, int]:
        return {name: int(f.sum()) for name, f in self.flags.items()}


@dataclasses.dataclass
class _Served:
    name: str
    detector: Detector
    compiled: CompiledPredicate
    enabled: bool = True
    faults: int = 0


class StreamingEngine:
    """Serve a set of compiled detectors over a stream of states."""

    def __init__(
        self,
        detectors: Sequence[Detector] = (),
        *,
        batch_size: int = 256,
        max_faults: int | None = None,
        metrics: RuntimeMetrics | None = None,
        check: bool = True,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.max_faults = max_faults
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self._check = check
        self._served: dict[str, _Served] = {}
        self._pending: list[Mapping[str, object]] = []
        self._batches = 0

    @classmethod
    def from_registry(cls, registry, **kwargs) -> "StreamingEngine":
        """Serve the latest version of every detector in a registry."""
        engine = cls(**kwargs)
        for entry in registry.latest():
            engine._install(entry.name, entry.detector, entry.compiled)
        return engine

    # -- detector management -------------------------------------------
    def add(
        self,
        detector: Detector,
        name: str | None = None,
        compiled: CompiledPredicate | None = None,
    ) -> str:
        """Install a detector, compiling its predicate; returns name.

        ``compiled`` skips compilation when the caller already holds
        the lowered form (e.g. a registry entry).
        """
        name = name if name is not None else detector.name
        if compiled is None:
            compiled = compile_predicate(detector.predicate, check=self._check)
        self._install(name, detector, compiled)
        return name

    def swap(
        self,
        detector: Detector,
        name: str,
        compiled: CompiledPredicate | None = None,
    ) -> None:
        """Replace the implementation behind an installed name.

        The hot-deploy path: the registration keeps its name (and so
        its metrics continuity) while the detector and compiled
        predicate are exchanged between micro-batches.  The
        fault count resets and the detector re-enables -- a fresh
        implementation earns a fresh quarantine budget.
        """
        served = self._require(name)
        if compiled is None:
            compiled = compile_predicate(detector.predicate, check=self._check)
        served.detector = detector
        served.compiled = compiled
        served.faults = 0
        served.enabled = True

    def _install(
        self, name: str, detector: Detector, compiled: CompiledPredicate
    ) -> None:
        if name in self._served:
            raise ValueError(f"detector {name!r} is already installed")
        self._served[name] = _Served(name, detector, compiled)

    def remove(self, name: str) -> None:
        del self._served[self._require(name).name]

    def enable(self, name: str) -> None:
        served = self._require(name)
        served.enabled = True
        served.faults = 0

    def disable(self, name: str) -> None:
        self._require(name).enabled = False

    def is_enabled(self, name: str) -> bool:
        return self._require(name).enabled

    def names(self) -> list[str]:
        return sorted(self._served)

    def enabled_names(self) -> list[str]:
        return sorted(n for n, s in self._served.items() if s.enabled)

    def _require(self, name: str) -> _Served:
        try:
            return self._served[name]
        except KeyError:
            raise KeyError(f"no detector {name!r} installed") from None

    # -- evaluation ----------------------------------------------------
    def submit(self, state: Mapping[str, object]) -> BatchResult | None:
        """Buffer one state; evaluates when a micro-batch is full."""
        self._pending.append(state)
        if len(self._pending) >= self.batch_size:
            return self.flush()
        return None

    def flush(self) -> BatchResult | None:
        """Evaluate whatever is buffered (None when nothing pending)."""
        if not self._pending:
            return None
        states, self._pending = self._pending, []
        return self.evaluate_batch(states)

    def evaluate_stream(
        self,
        states: Iterable[Mapping[str, object]],
        batch_size: int | None = None,
    ) -> Iterator[BatchResult]:
        """Micro-batch an entire stream, yielding per-batch results."""
        size = batch_size if batch_size is not None else self.batch_size
        chunk: list[Mapping[str, object]] = []
        for state in states:
            chunk.append(state)
            if len(chunk) >= size:
                yield self.evaluate_batch(chunk)
                chunk = []
        if chunk:
            yield self.evaluate_batch(chunk)

    def evaluate_batch(
        self, states: Sequence[Mapping[str, object]]
    ) -> BatchResult:
        """Pack ``states`` once and fan out across enabled detectors."""
        served = [s for s in self._served.values() if s.enabled]
        variables: set[str] = set()
        for entry in served:
            variables.update(entry.compiled.variables)
        index = build_index(variables)
        x = pack_states(states, index)
        return self.evaluate_packed(x, index)

    def evaluate_packed(
        self, x: np.ndarray, attribute_index: Mapping[str, int]
    ) -> BatchResult:
        """Fan a pre-packed ``(n, d)`` batch out across the detectors.

        A caller that already holds states in packed column form
        evaluates them here without re-packing.  ``attribute_index`` must
        cover every enabled detector's variables (a missing column
        evaluates as missing/NaN, same as :func:`pack_states`); flags
        are bit-identical to :meth:`evaluate_batch` over the same
        states because both paths feed the same compiled evaluators
        with per-variable column lookups.
        """
        self._batches += 1
        batch_id = self._batches
        served = [s for s in self._served.values() if s.enabled]
        index = attribute_index
        n = len(x)
        with obs.span(
            "engine.batch",
            batch=batch_id,
            size=n,
            detectors=len(served),
        ) as batch_span:
            flags: dict[str, np.ndarray] = {}
            faults: list[DetectorFault] = []
            total = 0
            for entry in served:
                stats = self.metrics.stats_for(entry.name)
                started = time.perf_counter()
                try:
                    flagged = np.asarray(
                        entry.compiled.evaluate_rows(x, index), dtype=bool
                    )
                    if flagged.shape != (n,):
                        raise ValueError(
                            f"detection vector has shape {flagged.shape}, "
                            f"expected ({n},)"
                        )
                except Exception as exc:  # noqa: BLE001 -- isolation boundary
                    flagged = np.zeros(n, dtype=bool)
                    entry.faults += 1
                    stats.record_fault()
                    faults.append(
                        DetectorFault(
                            detector=entry.name,
                            batch=batch_id,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    if (
                        self.max_faults is not None
                        and entry.faults >= self.max_faults
                    ):
                        entry.enabled = False
                else:
                    elapsed = time.perf_counter() - started
                    detections = int(flagged.sum())
                    stats.record_batch(n, detections, elapsed)
                    entry.detector.evaluations += n
                    entry.detector.detections += detections
                    total += detections
                flags[entry.name] = flagged
            batch_span.count("detections", total)
            batch_span.count("faults", len(faults))
        return BatchResult(
            batch=batch_id, size=n, flags=flags, faults=tuple(faults)
        )

    def report(self) -> dict[str, object]:
        """Metrics report plus per-detector serving status."""
        report = self.metrics.report()
        report["serving"] = {
            name: {
                "enabled": served.enabled,
                "mode": served.compiled.mode,
                "faults": served.faults,
                "fallback_reason": served.compiled.fallback_reason,
            }
            for name, served in sorted(self._served.items())
        }
        return report
