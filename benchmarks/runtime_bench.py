"""Experiment R-1: detector serving throughput, compiled vs interpreted.

The tables measure detector *quality*; deployment also cares about
detector *cost* (DETOx's lesson: configurations are chosen by measured
runtime overhead).  This driver trains a Table II detector per target
system, replays its dataset's states as serving traffic and measures
end-to-end throughput on four evaluation paths:

* ``interpreted`` -- per-state ``Predicate.evaluate`` AST walks, the
  seed repo's only runtime path;
* ``scalar`` -- the generated-Python closure from
  :mod:`repro.runtime.compile`, still one state at a time;
* ``batch`` -- the NumPy-vectorised evaluator over a pre-packed
  instance array (pure compute, the upper bound);
* ``engine`` -- :class:`~repro.runtime.engine.StreamingEngine` over
  the same states, i.e. micro-batching *including* dict-to-array
  packing and metrics accounting (the realistic serving number).

Every path's detection vector is verified bit-identical before any
timing is reported; a mismatch aborts the experiment.

Run it from the root of a checkout::

    PYTHONPATH=src python benchmarks/runtime_bench.py --scale bench

``benchmarks/test_bench_runtime.py`` runs the same comparison under
pytest-benchmark and asserts its bars.
"""

from __future__ import annotations

import argparse
import dataclasses
import time

import numpy as np

from repro.core.methodology import Methodology, MethodologyConfig
from repro.experiments.datasets import generate_dataset
from repro.experiments.reporting import render_table
from repro.experiments.scale import Scale, get_scale
from repro.runtime.compile import compile_predicate
from repro.runtime.engine import StreamingEngine
from repro.runtime.pack import pack_states

__all__ = ["RuntimeBenchRow", "run", "render", "main"]

#: One dataset per target system (7-Zip, Mp3Gain, FlightGear).
DEFAULT_DATASETS = ("7Z-A1", "MG-A1", "FG-A1")


@dataclasses.dataclass
class RuntimeBenchRow:
    dataset: str
    mode: str
    n_states: int
    seconds: float
    detections: int
    speedup: float  # vs the interpreted path on the same dataset

    @property
    def throughput(self) -> float:
        """States evaluated per second."""
        return self.n_states / self.seconds if self.seconds > 0 else 0.0

    def cells(self) -> list[str]:
        return [
            self.dataset,
            self.mode,
            str(self.n_states),
            f"{self.seconds * 1e3:.2f}",
            f"{self.throughput:,.0f}",
            f"{self.speedup:.1f}x",
            str(self.detections),
        ]


def _traffic(dataset, n_states: int) -> list[dict[str, object]]:
    """Replay dataset rows as ``n_states`` module-state dicts."""
    names = [attribute.name for attribute in dataset.attributes]
    rows = dataset.x
    return [
        dict(zip(names, (float(v) for v in rows[i % len(rows)])))
        for i in range(n_states)
    ]


def _timed(fn) -> tuple[float, object]:
    started = time.perf_counter()
    out = fn()
    return time.perf_counter() - started, out


def run(
    scale: Scale | str = "bench",
    datasets=None,
    n_states: int = 10_000,
) -> list[RuntimeBenchRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = list(datasets) if datasets else list(DEFAULT_DATASETS)
    method = Methodology(
        MethodologyConfig(learner="c45", folds=scale.folds, seed=scale.seed)
    )
    rows: list[RuntimeBenchRow] = []
    for name in names:
        dataset = generate_dataset(name, scale)
        detector = method.step3_generate(dataset).detector(
            name=f"{name}-detector"
        )
        predicate = detector.predicate
        compiled = compile_predicate(predicate)
        states = _traffic(dataset, n_states)
        index = {a.name: i for i, a in enumerate(dataset.attributes)}
        x = pack_states(states, index)

        interp_s, interp_flags = _timed(
            lambda: np.fromiter(
                (predicate.evaluate(state) for state in states),
                dtype=bool,
                count=len(states),
            )
        )
        scalar_s, scalar_flags = _timed(
            lambda: np.fromiter(
                (compiled.evaluate(state) for state in states),
                dtype=bool,
                count=len(states),
            )
        )
        batch_s, batch_flags = _timed(
            lambda: np.asarray(compiled.evaluate_rows(x, index), dtype=bool)
        )

        engine = StreamingEngine(batch_size=1024)
        engine.add(detector)

        def serve() -> np.ndarray:
            return np.concatenate(
                [
                    result.flags[detector.name]
                    for result in engine.evaluate_stream(states)
                ]
            )

        engine_s, engine_flags = _timed(serve)

        for mode, flags in (
            ("scalar", scalar_flags),
            ("batch", batch_flags),
            ("engine", engine_flags),
        ):
            if not np.array_equal(flags, interp_flags):
                raise RuntimeError(
                    f"{name}: {mode} detection vector diverges from the "
                    "interpreted path -- refusing to report timings"
                )
        detections = int(interp_flags.sum())
        for mode, seconds in (
            ("interpreted", interp_s),
            ("scalar", scalar_s),
            ("batch", batch_s),
            ("engine", engine_s),
        ):
            rows.append(
                RuntimeBenchRow(
                    dataset=name,
                    mode=mode,
                    n_states=n_states,
                    seconds=seconds,
                    detections=detections,
                    speedup=interp_s / seconds if seconds > 0 else 0.0,
                )
            )
    return rows


def render(rows: list[RuntimeBenchRow]) -> str:
    return render_table(
        ["Dataset", "Mode", "States", "ms", "States/s", "Speedup", "Det"],
        [row.cells() for row in rows],
        title="R-1: detector serving throughput (compiled vs interpreted)",
    )


def main(argv: list[str] | None = None) -> str:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="bench", choices=("smoke", "bench", "paper"))
    parser.add_argument("--datasets", nargs="*", default=None)
    args = parser.parse_args(argv)
    table = render(run(args.scale, args.datasets))
    print(table)
    return table


if __name__ == "__main__":
    main()
