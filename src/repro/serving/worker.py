"""Detector-evaluator workers: one StreamingEngine per shard.

A worker owns one ingest ring and one results ring.  Its loop is:

1. **deploy check** -- cheap epoch read on the ingest ring (the
   supervisor bumps it when it publishes a snapshot) plus a periodic
   mtime poll of the snapshot file (so deploys published by an
   external process are picked up too).  On change, the worker reloads
   the registry snapshot and swaps detector versions **between
   micro-batches** via :meth:`StreamingEngine.swap` -- buffered events
   are untouched, so a deploy never drops or re-evaluates anything;
2. **consume** -- peek a zero-copy view of up to ``batch_size`` packed
   events and run :meth:`StreamingEngine.evaluate_packed` directly on
   it, inheriting the engine's fault isolation and quarantine
   semantics unchanged;
3. **publish results** -- per-event ``(seq, flag-mask, deploy-serial)``
   rows into the results ring (blocking: results are never shed), then
   advance the ingest cursor, returning the slots to the router.

The ordering in step 3 matters: the ingest cursor only advances after
the results are out, so a worker killed mid-batch leaves the events
unconsumed rather than half-accounted -- ``processed + shed ==
submitted`` stays an invariant, not a hope.

The *epoch-before-data* ordering gives deploys a useful guarantee:
the supervisor bumps the epoch after the snapshot file is in place and
before any later event is pushed, so an event submitted after
``publish`` returns is always evaluated by the new detector versions.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro import observability as obs
from repro.observability.names import (
    SERVE_DEPLOY,
    SERVE_WORKER,
    SERVE_WORKER_BATCH,
)
from repro.runtime.engine import StreamingEngine
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.registry import DetectorRegistry
from repro.serving.config import ServeConfig
from repro.serving.ring import RingSpec, SharedRing

__all__ = ["ServeWorker", "worker_main"]

#: Results-ring metadata columns: sequence, flag mask, deploy serial.
RESULT_META = 3


def read_snapshot(path: str | pathlib.Path) -> tuple[DetectorRegistry, int]:
    """Load a registry snapshot and its deploy serial.

    The snapshot is ``DetectorRegistry.save`` output, optionally with
    a ``serial`` the deploy pipeline increments per publish; lint
    gating is off and self-checks skipped -- the artefact was gated
    when it was published.
    """
    payload = json.loads(pathlib.Path(path).read_text())
    registry = DetectorRegistry.from_dict(payload, check=False)
    return registry, int(payload.get("serial", 0))


class ServeWorker:
    """The per-shard evaluator; single-threaded, ring-fed."""

    def __init__(
        self,
        shard: int,
        in_ring: SharedRing,
        out_ring: SharedRing,
        snapshot_path: str | pathlib.Path,
        index: dict[str, int],
        bit_of: dict[str, int],
        config: ServeConfig,
        metrics: RuntimeMetrics | None = None,
    ) -> None:
        self.shard = shard
        self.in_ring = in_ring
        self.out_ring = out_ring
        self.snapshot_path = pathlib.Path(snapshot_path)
        self.index = index
        self.bit_of = bit_of
        self.config = config
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self.engine = StreamingEngine(
            batch_size=config.batch_size,
            max_faults=config.max_faults,
            metrics=self.metrics,
            check=False,
        )
        self.processed = 0
        self.deploys = 0
        self.deploy_skipped: list[str] = []
        self.serial = 0
        self._versions: dict[str, int] = {}
        self._epoch = in_ring.epoch
        self._stat: tuple[int, int, int] | None = None
        self._last_poll = 0.0
        self._load_snapshot(initial=True)

    # -- deploy --------------------------------------------------------
    def _snapshot_stat(self) -> tuple[int, int, int] | None:
        try:
            stat = os.stat(self.snapshot_path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_ino, stat.st_size)

    def _load_snapshot(self, initial: bool = False) -> None:
        self._stat = self._snapshot_stat()
        registry, serial = read_snapshot(self.snapshot_path)
        schema = set(self.index)
        swapped: list[str] = []
        skipped: list[str] = []
        current = set(self._versions)
        incoming = {entry.name: entry for entry in registry.latest()}
        for name in sorted(current - set(incoming)):
            self.engine.remove(name)
            del self._versions[name]
            swapped.append(f"-{name}")
        for name, entry in sorted(incoming.items()):
            needed = set(entry.compiled.variables)
            if not needed <= schema:
                # The ring's column layout is fixed for the topology's
                # lifetime; a detector reading outside it would see
                # every unknown variable as missing and silently never
                # fire.  Refuse the swap, keep the old version serving.
                skipped.append(
                    f"{name}@v{entry.version} needs "
                    f"{sorted(needed - schema)} outside the ring schema"
                )
                continue
            if name not in self._versions:
                self.engine.add(entry.detector, name, compiled=entry.compiled)
                self._versions[name] = entry.version
                if not initial:
                    swapped.append(f"+{name}@v{entry.version}")
            elif self._versions[name] != entry.version:
                self.engine.swap(entry.detector, name, compiled=entry.compiled)
                old, self._versions[name] = self._versions[name], entry.version
                swapped.append(f"{name}@v{old}->v{entry.version}")
        self.serial = serial
        self.deploy_skipped.extend(skipped)
        if not initial:
            self.deploys += 1
            with obs.span(
                SERVE_DEPLOY,
                shard=self.shard,
                serial=serial,
                swapped=",".join(swapped) or "(none)",
                skipped=len(skipped),
            ):
                pass

    def _maybe_deploy(self) -> None:
        epoch = self.in_ring.epoch
        if epoch != self._epoch:
            self._epoch = epoch
            self._load_snapshot()
            return
        now = time.monotonic()
        if now - self._last_poll < self.config.deploy_poll_s:
            return
        self._last_poll = now
        stat = self._snapshot_stat()
        if stat is not None and stat != self._stat:
            self._load_snapshot()

    # -- evaluation ----------------------------------------------------
    def _publish_results(self, meta: np.ndarray) -> None:
        offset = 0
        while offset < len(meta):
            pushed = self.out_ring.push(None, meta[offset:])
            offset += pushed
            if offset < len(meta) and pushed == 0:
                # Results are never shed; the supervisor drains this
                # ring continuously, so the wait is bounded in practice.
                time.sleep(self.config.poll_interval_s)

    def step(self, wait: bool = True) -> int:
        """One loop iteration; events processed, or -1 when done.

        ``wait=False`` (the in-process topology's stepping mode)
        returns immediately instead of idling on an empty ring.
        """
        rows, meta = self.in_ring.peek(self.config.batch_size)
        n = len(meta)
        if n == 0:
            self._maybe_deploy()  # stay current while idle
            if self.in_ring.stopped and self.in_ring.pending == 0:
                return -1
            if wait:
                time.sleep(self.config.poll_interval_s)
            return 0
        # Deploy barrier -- checked *after* the peek: the supervisor
        # bumps the epoch before pushing any post-publish event, so if
        # this peek saw such an event the epoch read below sees the
        # bump, and the batch is evaluated by the new versions.
        self._maybe_deploy()
        with obs.span(SERVE_WORKER_BATCH, shard=self.shard, size=n):
            result = self.engine.evaluate_packed(rows, self.index)
        out = np.zeros((n, RESULT_META), dtype=np.int64)
        out[:, 0] = meta[:, 0]
        for name, flagged in result.flags.items():
            bit = self.bit_of.get(name)
            if bit is not None:
                out[:, 1] |= flagged.astype(np.int64) << bit
        out[:, 2] = self.serial
        # Views into the ring must be dead before the slots recycle.
        del rows, meta
        self._publish_results(out)
        self.in_ring.advance(n)
        self.processed += n
        if self.config.worker_cost_s:
            # Modeled per-event downstream cost (external scorer,
            # RPC); see ServeConfig.worker_cost_s.
            time.sleep(self.config.worker_cost_s * n)
        return n

    def run(self) -> None:
        """Consume until the supervisor stops the topology."""
        with obs.span(SERVE_WORKER, shard=self.shard):
            while self.step() != -1:
                pass

    # -- reporting -----------------------------------------------------
    def summary(self) -> dict:
        return {
            "shard": self.shard,
            "processed": self.processed,
            "deploys": self.deploys,
            "deploy_skipped": list(self.deploy_skipped),
            "serial": self.serial,
            "versions": dict(sorted(self._versions.items())),
            "metrics": self.metrics.to_dict(),
        }


def worker_main(
    shard: int,
    in_spec: RingSpec,
    out_spec: RingSpec,
    snapshot_path: str,
    index: dict[str, int],
    bit_of: dict[str, int],
    config: ServeConfig,
    summary_path: str,
    trace=None,
) -> None:
    """Process entry point: attach rings, serve, write the summary."""
    obs.ensure_worker(trace)
    in_ring = SharedRing.attach(in_spec)
    out_ring = SharedRing.attach(out_spec)
    try:
        worker = ServeWorker(
            shard, in_ring, out_ring, snapshot_path, index, bit_of, config
        )
        worker.run()
        pathlib.Path(summary_path).write_text(json.dumps(worker.summary()))
    finally:
        in_ring.close()
        out_ring.close()
