"""The serving topology: router + rings + evaluator workers.

:class:`ServingTopology` assembles the tier the rest of this package
provides: it loads a versioned registry snapshot, fixes the ring
column schema (the union of every published version's variables, so a
rollback never needs a schema change), creates one ingest and one
results ring per worker, and runs N evaluator workers -- either as
real processes (``inline=False``, the production shape) or stepped
in-process (``inline=True``, the deterministic shape the differential
tests use; same rings, same router, same worker code, no scheduler).

Deploys go through :meth:`publish`: the snapshot file is replaced
atomically (write-temp + ``os.replace``, so a polling worker can never
read a torn document), then every ingest ring's deploy epoch is
bumped.  Because the epoch bump happens before any later event is
pushed, an event submitted after ``publish`` returns is guaranteed to
be evaluated by the new detector versions; events already in flight
are evaluated by whichever version owned the micro-batch, and every
result row carries the deploy serial that produced it, so the
hand-over is auditable, not just safe.  :meth:`rollback` is the one-
call form: re-point a detector at its prior version
(:meth:`~repro.runtime.registry.DetectorRegistry.rollback`) and
publish.

Accounting is closed: every submitted event is either processed (its
``(seq, mask, serial)`` row came back) or shed (counted per shard by
the router), and :meth:`stop` asserts ``processed + shed ==
submitted`` before reporting.  SLOs are evaluated over the
bucket-exact cross-worker metrics merge.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib
import tempfile
import time

import numpy as np

from repro import observability as obs
from repro.observability.names import (
    PORTFOLIO_APPLY,
    SERVE_DRAIN,
    SERVE_PUBLISH,
)
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.registry import DetectorRegistry
from repro.runtime.pack import build_index
from repro.serving.config import ServeConfig
from repro.serving.ring import SharedRing
from repro.serving.router import ShardRouter
from repro.serving.slo import SLOPolicy, SLOReport, evaluate_slo
from repro.serving.worker import RESULT_META, ServeWorker, worker_main

__all__ = ["publish_snapshot", "ServeReport", "ServingTopology"]

#: Flag masks live in an int64 column; bit 63 is the sign bit.
MAX_DETECTORS = 63


def publish_snapshot(
    registry: DetectorRegistry,
    path: str | pathlib.Path,
    serial: int | None = None,
) -> int:
    """Atomically write ``registry`` as a versioned snapshot.

    ``serial`` defaults to one past the serial of the snapshot
    currently at ``path`` (1 for a fresh file); the write goes through
    a temp file + ``os.replace`` so a polling worker sees either the
    old document or the new one, never a torn mix.
    """
    path = pathlib.Path(path)
    if serial is None:
        serial = 1
        try:
            serial = int(json.loads(path.read_text()).get("serial", 0)) + 1
        except (OSError, ValueError):
            pass
    payload = registry.to_dict()
    payload["serial"] = serial
    handle, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            json.dump(payload, stream, indent=2)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return serial


@dataclasses.dataclass
class ServeReport:
    """Everything one serving session produced.

    ``seqs``/``masks``/``serials`` are parallel arrays: one row per
    processed event, in drain order -- the mask's bit ``i`` is detector
    ``names[i]``'s flag, the serial names the deploy that evaluated it.
    """

    submitted: int
    processed: int
    shed: int
    shed_by_shard: list[int]
    names: list[str]
    seqs: np.ndarray
    masks: np.ndarray
    serials: np.ndarray
    metrics: RuntimeMetrics
    slo: SLOReport | None
    workers: list[dict]

    @property
    def accounted(self) -> bool:
        """The no-silent-loss invariant."""
        return self.processed + self.shed == self.submitted

    def flags_by_seq(self) -> dict[int, int]:
        """Per-event flag masks keyed by submission sequence."""
        return {
            int(seq): int(mask)
            for seq, mask in zip(self.seqs, self.masks)
        }

    def detections(self) -> dict[str, int]:
        """Events flagged, per detector, across every worker."""
        return {
            name: int(((self.masks >> bit) & 1).sum())
            for bit, name in enumerate(self.names)
        }

    def to_dict(self) -> dict:
        """JSON-ready summary (per-event arrays reduced to counts)."""
        return {
            "submitted": self.submitted,
            "processed": self.processed,
            "shed": self.shed,
            "shed_by_shard": list(self.shed_by_shard),
            "accounted": self.accounted,
            "detections": self.detections(),
            "serials": sorted(int(s) for s in np.unique(self.serials)),
            "metrics": self.metrics.report(),
            "slo": self.slo.to_dict() if self.slo is not None else None,
            "workers": self.workers,
        }


class ServingTopology:
    """N ring-fed evaluator workers behind a shard-by-key router."""

    def __init__(
        self,
        snapshot_path: str | pathlib.Path,
        config: ServeConfig | None = None,
        *,
        slo: SLOPolicy | None = None,
        inline: bool = False,
    ) -> None:
        self.snapshot_path = pathlib.Path(snapshot_path)
        self.config = config if config is not None else ServeConfig()
        self.slo_policy = slo
        self.inline = inline
        registry = DetectorRegistry.load(self.snapshot_path, check=False)
        self.names = sorted(registry.names())
        if len(self.names) > MAX_DETECTORS:
            raise ValueError(
                f"topology serves at most {MAX_DETECTORS} detectors "
                f"(flag masks are int64), got {len(self.names)}"
            )
        self.bit_of = {name: bit for bit, name in enumerate(self.names)}
        # Ring schema: every version's variables, so hot deploy to any
        # published version (including rollback) fits without resizing.
        variables: set[str] = set()
        for entry in registry:
            variables.update(entry.compiled.variables)
        self.index = build_index(variables)
        self.router: ShardRouter | None = None
        self._in_rings: list[SharedRing] = []
        self._out_rings: list[SharedRing] = []
        self._workers: list[ServeWorker] = []
        self._procs: list[multiprocessing.Process] = []
        self._summary_dir: tempfile.TemporaryDirectory | None = None
        self._seqs: list[np.ndarray] = []
        self._masks: list[np.ndarray] = []
        self._serials: list[np.ndarray] = []
        self._collected = 0
        self._report: ServeReport | None = None
        self._started = False

    @classmethod
    def from_registry(
        cls,
        registry: DetectorRegistry,
        snapshot_path: str | pathlib.Path,
        config: ServeConfig | None = None,
        **kwargs,
    ) -> "ServingTopology":
        """Publish ``registry`` to ``snapshot_path`` and build on it."""
        publish_snapshot(registry, snapshot_path)
        return cls(snapshot_path, config, **kwargs)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServingTopology":
        if self._started:
            raise RuntimeError("topology already started")
        self._started = True
        config = self.config
        for shard in range(config.workers):
            self._in_rings.append(
                SharedRing.create(config.capacity, len(self.index), 1)
            )
            self._out_rings.append(
                SharedRing.create(config.capacity, 0, RESULT_META)
            )
        self.router = ShardRouter(
            self._in_rings,
            self.index,
            config,
            drain_hook=self._pump if self.inline else self._drain_results,
        )
        if self.inline:
            for shard in range(config.workers):
                self._workers.append(
                    ServeWorker(
                        shard,
                        self._in_rings[shard],
                        self._out_rings[shard],
                        self.snapshot_path,
                        self.index,
                        self.bit_of,
                        config,
                    )
                )
            return self
        self._summary_dir = tempfile.TemporaryDirectory(prefix="repro-serve-")
        trace = obs.export_spec()
        for shard in range(config.workers):
            proc = multiprocessing.Process(
                target=worker_main,
                args=(
                    shard,
                    self._in_rings[shard].spec,
                    self._out_rings[shard].spec,
                    str(self.snapshot_path),
                    self.index,
                    self.bit_of,
                    config,
                    self._summary_path(shard),
                    trace,
                ),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        return self

    def __enter__(self) -> "ServingTopology":
        return self.start()

    def __exit__(self, *exc) -> None:
        if self._report is None:
            try:
                self.stop()
            except Exception:
                if not any(exc):
                    raise

    def _summary_path(self, shard: int) -> str:
        assert self._summary_dir is not None
        return str(
            pathlib.Path(self._summary_dir.name) / f"worker-{shard}.json"
        )

    # -- ingest --------------------------------------------------------
    def submit(self, state, key: object = None) -> int:
        """Route one state into the topology; returns its sequence."""
        assert self.router is not None, "topology not started"
        return self.router.submit(state, key)

    def submit_many(self, states, keys=None) -> int:
        """Route an iterable of states; returns how many were submitted."""
        count = 0
        if keys is None:
            for state in states:
                self.submit(state)
                count += 1
        else:
            for state, key in zip(states, keys):
                self.submit(state, key)
                count += 1
        return count

    # -- deploy --------------------------------------------------------
    def publish(self, registry: DetectorRegistry) -> int:
        """Hot-deploy ``registry``: atomic snapshot, then epoch bump.

        Returns the new deploy serial.  Events submitted after this
        returns are evaluated by the new versions; in-flight events
        finish on whichever version owned their micro-batch.
        """
        with obs.span(SERVE_PUBLISH) as span:
            serial = publish_snapshot(registry, self.snapshot_path)
            span.set("serial", serial)
            for ring in self._in_rings:
                ring.bump_epoch()
        return serial

    def rollback(self, name: str) -> int:
        """One-call rollback: re-point ``name`` and hot-deploy."""
        registry = DetectorRegistry.load(self.snapshot_path, check=False)
        registry.rollback(name)
        return self.publish(registry)

    def apply_plan(self, plan, registry: DetectorRegistry | None = None) -> int:
        """Atomically deploy a portfolio plan; returns the new serial.

        ``plan`` is a :class:`repro.portfolio.DeploymentPlan`;
        ``registry`` the registry it was solved against (the current
        snapshot by default).  The plan is materialized as a pinned
        subset registry (plan attached, so the published snapshot is
        gated by and carries the plan) and hot-deployed through
        :meth:`publish` -- workers drop unselected detectors and pin
        the selected versions at the epoch bump, between micro-batches.
        Raises ``ValueError`` when the plan does not validate.
        """
        with obs.span(PORTFOLIO_APPLY, plan=plan.name,
                      detectors=len(plan.detectors)) as span:
            if registry is None:
                registry = DetectorRegistry.load(
                    self.snapshot_path, check=False
                )
            unknown = [
                planned.name
                for planned in plan.detectors
                if planned.name not in self.bit_of
            ]
            if unknown:
                raise ValueError(
                    f"plan {plan.name!r} selects detectors outside this "
                    f"topology: {', '.join(unknown)} (the flag-mask bit "
                    "layout is fixed at topology construction)"
                )
            subset = plan.build_registry(registry)
            serial = self.publish(subset)
            span.set("serial", serial)
            return serial

    # -- results -------------------------------------------------------
    def _drain_results(self) -> int:
        drained = 0
        for ring in self._out_rings:
            while True:
                _, meta = ring.peek(ring.capacity)
                n = len(meta)
                if n == 0:
                    break
                taken = meta.copy()
                del meta
                ring.advance(n)
                self._seqs.append(taken[:, 0])
                self._masks.append(taken[:, 1])
                self._serials.append(taken[:, 2])
                drained += n
        self._collected += drained
        return drained

    def _pump(self) -> None:
        """Inline mode: step every worker once, then drain results."""
        for worker in self._workers:
            worker.step(wait=False)
        self._drain_results()

    def drain(self, timeout: float = 60.0) -> None:
        """Block until every submitted event is processed or shed."""
        assert self.router is not None, "topology not started"
        router = self.router
        with obs.span(SERVE_DRAIN) as span:
            router.flush()
            deadline = time.monotonic() + timeout
            while self._collected + router.total_shed < router.submitted:
                if self.inline:
                    self._pump()
                else:
                    self._drain_results()
                    time.sleep(self.config.poll_interval_s)
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"drain timed out: {self._collected} processed + "
                        f"{router.total_shed} shed < {router.submitted} "
                        "submitted"
                    )
            span.count("drained", self._collected)

    # -- shutdown ------------------------------------------------------
    def stop(self, timeout: float = 60.0) -> ServeReport:
        """Drain, stop the workers, and assemble the serve report."""
        if self._report is not None:
            return self._report
        assert self.router is not None, "topology not started"
        self.drain(timeout)
        for ring in self._in_rings:
            ring.request_stop()
        summaries: list[dict] = []
        if self.inline:
            for worker in self._workers:
                summaries.append(worker.summary())
        else:
            for proc in self._procs:
                proc.join(timeout)
            for shard, proc in enumerate(self._procs):
                if proc.is_alive():
                    proc.terminate()
                    proc.join(5.0)
                    summaries.append(
                        {"shard": shard, "error": "worker did not stop"}
                    )
                else:
                    try:
                        summaries.append(
                            json.loads(
                                pathlib.Path(
                                    self._summary_path(shard)
                                ).read_text()
                            )
                        )
                    except (OSError, ValueError) as exc:
                        summaries.append(
                            {"shard": shard, "error": f"no summary: {exc}"}
                        )
        self._drain_results()
        merged = RuntimeMetrics()
        for summary in summaries:
            if "metrics" in summary:
                merged.merge(RuntimeMetrics.from_dict(summary["metrics"]))
        router = self.router
        processed = self._collected
        shed = router.total_shed
        if processed + shed != router.submitted:
            raise RuntimeError(
                f"accounting broken: {processed} processed + {shed} shed "
                f"!= {router.submitted} submitted"
            )
        slo = None
        if self.slo_policy is not None:
            slo = evaluate_slo(
                merged,
                self.slo_policy,
                submitted=router.submitted,
                shed=shed,
            )
        empty = np.zeros(0, dtype=np.int64)
        self._report = ServeReport(
            submitted=router.submitted,
            processed=processed,
            shed=shed,
            shed_by_shard=list(router.shed),
            names=list(self.names),
            seqs=np.concatenate(self._seqs) if self._seqs else empty,
            masks=np.concatenate(self._masks) if self._masks else empty,
            serials=np.concatenate(self._serials) if self._serials else empty,
            metrics=merged,
            slo=slo,
            workers=summaries,
        )
        for ring in self._in_rings + self._out_rings:
            ring.close()
        if self._summary_dir is not None:
            self._summary_dir.cleanup()
            self._summary_dir = None
        return self._report
