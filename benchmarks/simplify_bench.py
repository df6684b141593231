"""Experiment R-2: static simplification of Table II detectors.

The static checker (:mod:`repro.analysis.simplify`) rewrites a mined
predicate to a provably-equivalent canonical form before the runtime
lowers it.  This driver quantifies that step on real mined detectors:
for each Table II dataset and symbolic learner it reports the atom
count before/after simplification, the checker's clause verdicts, and
the batch-serving time of the compiled detector with simplification
off vs on.

Detection vectors of the simplified pipeline are verified bit-identical
to the unsimplified interpreted path over the full replayed traffic
before any timing is reported; a mismatch aborts the experiment --
the equivalence proof is not trusted blindly here.

C4.5 trees yield mutually exclusive paths (extraction already merges
per-path bounds), so their detectors mostly shrink through cross-branch
subsumption and interval merging; sequential-covering learners (PRISM)
emit overlapping rules where subsumption bites harder.  Both appear in
the report for exactly that contrast.

Run it from the root of a checkout::

    PYTHONPATH=src python benchmarks/simplify_bench.py --scale bench

``benchmarks/test_bench_simplify.py`` runs it under pytest-benchmark
and asserts its bars.
"""

from __future__ import annotations

import argparse
import dataclasses
import time
from collections import Counter

import numpy as np

from repro.analysis.simplify import simplify_predicate
from repro.core.methodology import Methodology, MethodologyConfig
from repro.experiments.datasets import generate_dataset
from repro.experiments.reporting import render_table
from repro.experiments.scale import Scale, get_scale
from repro.runtime.compile import compile_predicate
from repro.runtime.pack import pack_states

__all__ = ["SimplifyBenchRow", "run", "render", "main"]

DEFAULT_DATASETS = ("7Z-A1", "MG-A1", "FG-A1")
DEFAULT_LEARNERS = ("c45", "prism")


@dataclasses.dataclass
class SimplifyBenchRow:
    dataset: str
    learner: str
    atoms_before: int
    atoms_after: int
    verdicts: Counter
    n_states: int
    seconds_original: float
    seconds_simplified: float
    detections: int

    @property
    def shrink(self) -> float:
        """Fraction of atoms removed by simplification."""
        if self.atoms_before == 0:
            return 0.0
        return 1.0 - self.atoms_after / self.atoms_before

    @property
    def speedup(self) -> float:
        if self.seconds_simplified <= 0:
            return 0.0
        return self.seconds_original / self.seconds_simplified

    def cells(self) -> list[str]:
        verdicts = (
            ", ".join(
                f"{count} {status}"
                for status, count in sorted(self.verdicts.items())
            )
            or "-"
        )
        return [
            self.dataset,
            self.learner,
            str(self.atoms_before),
            str(self.atoms_after),
            f"{self.shrink * 100.0:.0f}%",
            verdicts,
            f"{self.seconds_original * 1e3:.2f}",
            f"{self.seconds_simplified * 1e3:.2f}",
            f"{self.speedup:.2f}x",
            str(self.detections),
        ]


def _traffic(dataset, n_states: int) -> list[dict[str, object]]:
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
    learners=DEFAULT_LEARNERS,
    n_states: int = 10_000,
) -> list[SimplifyBenchRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    names = list(datasets) if datasets else list(DEFAULT_DATASETS)
    rows: list[SimplifyBenchRow] = []
    for name in names:
        dataset = generate_dataset(name, scale)
        states = _traffic(dataset, n_states)
        index = {a.name: i for i, a in enumerate(dataset.attributes)}
        x = pack_states(states, index)
        for learner in learners:
            method = Methodology(
                MethodologyConfig(
                    learner=learner, folds=scale.folds, seed=scale.seed
                )
            )
            predicate = method.step3_generate(dataset).predicate
            result = simplify_predicate(predicate)

            original = compile_predicate(predicate, simplify=False)
            simplified = compile_predicate(predicate, simplify=True)

            reference = predicate.evaluate_rows(x, index).astype(bool)
            original_s, original_flags = _timed(
                lambda c=original: np.asarray(
                    c.evaluate_rows(x, index), dtype=bool
                )
            )
            simplified_s, simplified_flags = _timed(
                lambda c=simplified: np.asarray(
                    c.evaluate_rows(x, index), dtype=bool
                )
            )
            for mode, flags in (
                ("original", original_flags),
                ("simplified", simplified_flags),
            ):
                if not np.array_equal(flags, reference):
                    raise RuntimeError(
                        f"{name}/{learner}: {mode} detection vector diverges "
                        "from the interpreted path -- refusing to report"
                    )
            rows.append(
                SimplifyBenchRow(
                    dataset=name,
                    learner=learner,
                    atoms_before=result.atoms_before,
                    atoms_after=result.atoms_after,
                    verdicts=Counter(v.status for v in result.verdicts),
                    n_states=n_states,
                    seconds_original=original_s,
                    seconds_simplified=simplified_s,
                    detections=int(reference.sum()),
                )
            )
    return rows


def render(rows: list[SimplifyBenchRow]) -> str:
    return render_table(
        [
            "Dataset",
            "Learner",
            "Atoms",
            "Simplified",
            "Shrink",
            "Verdicts",
            "ms (orig)",
            "ms (simpl)",
            "Speedup",
            "Det",
        ],
        [row.cells() for row in rows],
        title="R-2: static simplification of mined detectors",
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
