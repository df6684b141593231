"""Experiment R-4: mining data-plane throughput, presorted vs seed engine.

Step 4's refinement sweep is the compute budget of the methodology:
every plan in the grid re-induces C4.5 trees over resampled training
folds, so induction cost multiplies by (plans x folds).  This driver
measures the vectorised data plane (presorted index-based induction,
fold-batched growth, batch tree inference) against the seed
implementation (the C4.5 engine kept as the test oracle in
``tests/mining/_c45_reference.py``) on a program-state-like workload,
under the data plane's hard contract: **bit-identical trees,
predictions and trial rankings** -- every comparison is verified
before any timing is reported, and a divergence aborts the
experiment.

Five stages:

* ``fit`` -- one C4.5 induction on the full dataset, the reference's
  per-node sorting vs presorted index subsets (trees compared by
  pickle bytes);
* ``distribution`` -- routing a state matrix through the fitted tree,
  per-row recursive descent vs level-order batch routing (class
  distributions compared by bytes);
* ``refine`` -- the end-to-end Step 4 grid search, seed path
  (reference engine, per-seed SMOTE neighbour queries) vs the full
  data plane
  (rankings, selection keys and per-trial AUCs compared exactly);
* ``crossval fit`` -- one cross-validation's training folds, each
  fitted alone through ``fit`` vs grown together by ``fit_trees``
  (trees compared by pickle bytes), with the stacked split-search
  passes each needed (the ``split_passes`` count of the ``c45.fit``
  spans);
* ``grid fit`` -- the fold trees of every plan of the refinement grid,
  one ``fit_trees`` call per plan vs one for the whole grid as the
  serial sweep joins them (trees compared by pickle bytes), with the
  split passes and the depths settled (the ``levels`` count) each
  needed.

The synthetic dataset mirrors sampled program state: small counters,
enum-like codes, quantised measurements and a few continuous signals,
with missing values, driving an imbalanced failure label.

Run it from the root of a checkout::

    PYTHONPATH=src python benchmarks/mining_bench.py --scale bench

``benchmarks/test_bench_mining.py`` runs the same comparison under
pytest-benchmark and asserts its bars.
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import pickle
import sys
import time

import numpy as np

from repro import observability as obs
from repro.core.refine import RefinementGrid, RefinementResult, refine
from repro.experiments.reporting import render_table
from repro.experiments.scale import Scale, get_scale
from repro.mining.crossval import stratified_folds, train_folds
from repro.mining.dataset import Attribute, Dataset
from repro.mining.tree import C45DecisionTree, fit_trees

# The reference engine lives in the test suite; make it importable
# when this file runs as a script.
_ROOT = str(pathlib.Path(__file__).resolve().parents[1])
if _ROOT not in sys.path:
    sys.path.append(_ROOT)
from tests.mining._c45_reference import (  # noqa: E402
    ReferenceC45DecisionTree,
    distribution as reference_distribution,
)
from tests.mining._smote_reference import per_seed_neighbours  # noqa: E402

__all__ = ["MiningBenchRow", "make_state_dataset", "run", "render", "main"]


@dataclasses.dataclass
class MiningBenchRow:
    stage: str
    detail: str
    baseline_s: float
    optimized_s: float
    #: Split-search passes (baseline, optimized), where the stage counts them.
    split_passes: tuple[int, int] | None = None
    #: Depths settled (baseline, optimized), where the stage counts them.
    levels: tuple[int, int] | None = None

    @property
    def speedup(self) -> float:
        return self.baseline_s / self.optimized_s if self.optimized_s > 0 else 0.0

    def cells(self) -> list[str]:
        return [
            self.stage,
            self.detail,
            f"{self.baseline_s * 1e3:,.1f}",
            f"{self.optimized_s * 1e3:,.1f}",
            f"{self.speedup:.2f}x",
        ]


def make_state_dataset(
    n: int, d: int = 24, seed: int = 0, missing: float = 0.03
) -> Dataset:
    """A program-state-like mining dataset.

    Numeric variables cycle through four flavours of sampled program
    state -- small counters, enum-like codes, quantised measurements
    and continuous signals -- plus one nominal mode attribute; a few
    variables drive an imbalanced (20 % positive) failure label and
    ``missing`` of the cells are dropped, as unlogged variables are.
    """
    rng = np.random.default_rng(seed)
    attributes = [Attribute.numeric(f"v{j}") for j in range(d)]
    attributes.append(Attribute.nominal("mode", ("a", "b", "c")))
    columns = []
    for j in range(d):
        kind = j % 4
        if kind == 0:
            column = rng.integers(0, 20, size=n).astype(float)
        elif kind == 1:
            column = rng.integers(0, 5, size=n).astype(float)
        elif kind == 2:
            column = np.round(rng.normal(size=n) * 4.0)
        else:
            column = rng.normal(size=n)
        columns.append(column)
    x = np.column_stack(columns + [rng.integers(0, 3, size=n).astype(float)])
    x[rng.random(x.shape) < missing] = np.nan
    filled = np.nan_to_num(x)
    score = (
        filled[:, 0] * 0.2
        + filled[:, 3] * 0.8
        + filled[:, 2] * filled[:, 7] * 0.1
        + rng.normal(scale=1.0, size=n)
    )
    y = (score > np.quantile(score, 0.8)).astype(np.int64)
    return Dataset(
        attributes, Attribute.nominal("class", ("neg", "pos")), x, y, name="R4"
    )


def _workload(scale: Scale) -> dict:
    if scale.name == "smoke":
        return {
            "n": 600,
            "d": 12,
            "folds": 3,
            "repeats": 2,
            "predict_rows": 8_000,
            "grid": RefinementGrid(
                undersample_levels=(25.0, 85.0),
                oversample_levels=(100.0, 700.0),
                neighbour_counts=(1, 5),
            ),
        }
    return {
        "n": 2_000,
        "d": 24,
        "folds": 5,
        "repeats": 3,
        "predict_rows": 20_000,
        "grid": RefinementGrid.reduced(),
    }


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _ranking(result: RefinementResult) -> list[tuple]:
    return [
        (t.plan.sampling, t.plan.level, t.plan.neighbours, t.key)
        for t in result.ranked()
    ]


def _fit_counts(fit) -> tuple[int, int]:
    """The stacked split-search passes ``fit()`` runs and the depths it
    settles, from its ``c45.fit`` spans."""
    with obs.tracing() as tracer:
        fit()
    spans = [record for record in tracer.spans if record.name == "c45.fit"]
    return (
        sum(int(record.counters.get("split_passes", 0)) for record in spans),
        sum(int(record.counters.get("levels", 0)) for record in spans),
    )


def run(scale: Scale | str = "bench") -> list[MiningBenchRow]:
    if isinstance(scale, str):
        scale = get_scale(scale)
    load = _workload(scale)
    dataset = make_state_dataset(load["n"], load["d"], seed=scale.seed)
    dataset.presort()
    factory_args = dict(min_leaf_weight=2.0)
    rows: list[MiningBenchRow] = []

    # -- fit: per-node sorting vs presorted index subsets -------------
    seed_tree = ReferenceC45DecisionTree(**factory_args).fit(dataset)
    fast_tree = C45DecisionTree(**factory_args).fit(dataset)
    if pickle.dumps(seed_tree.root) != pickle.dumps(fast_tree.root):
        raise RuntimeError("presorted induction diverged from the reference tree")
    fit_seed = _best_of(
        lambda: ReferenceC45DecisionTree(**factory_args).fit(dataset),
        load["repeats"],
    )
    fit_fast = _best_of(
        lambda: C45DecisionTree(**factory_args).fit(dataset),
        load["repeats"],
    )
    rows.append(
        MiningBenchRow(
            "fit",
            f"n={load['n']} d={load['d']} nodes={fast_tree.node_count}",
            fit_seed,
            fit_fast,
        )
    )

    # -- distribution: per-row descent vs level-order batch routing ---
    reps = -(-load["predict_rows"] // load["n"])
    states = np.tile(dataset.x, (reps, 1))[: load["predict_rows"]]
    per_row = reference_distribution(fast_tree, states)
    batch = fast_tree.distribution(states)
    if per_row.tobytes() != batch.tobytes():
        raise RuntimeError("batch routing diverged from per-row descent")
    predict_seed = _best_of(
        lambda: reference_distribution(fast_tree, states), load["repeats"]
    )
    predict_fast = _best_of(lambda: fast_tree.distribution(states), load["repeats"])
    rows.append(
        MiningBenchRow(
            "distribution",
            f"rows={len(states)}",
            predict_seed,
            predict_fast,
        )
    )

    # -- refine: the end-to-end Step 4 sweep --------------------------
    # The serial path is forced (a lambda factory cannot cross a
    # process boundary) so both runs time a single process; the
    # baseline puts smote back on per-seed neighbour queries
    # (tests/mining/_smote_reference.py) -- the seed repo's exact
    # data plane.
    def sweep(learner: type[C45DecisionTree]) -> tuple[float, RefinementResult]:
        factory = lambda: learner(**factory_args)  # noqa: E731
        fresh = make_state_dataset(load["n"], load["d"], seed=scale.seed)
        started = time.perf_counter()
        result = refine(
            fresh, factory, load["grid"], folds=load["folds"], seed=scale.seed
        )
        return time.perf_counter() - started, result

    with per_seed_neighbours():
        refine_seed, result_seed = sweep(ReferenceC45DecisionTree)
    refine_fast, result_fast = sweep(C45DecisionTree)
    if _ranking(result_seed) != _ranking(result_fast):
        raise RuntimeError("refinement ranking diverged from the seed path")
    seed_aucs = [t.evaluation.mean_auc for t in result_seed.trials]
    fast_aucs = [t.evaluation.mean_auc for t in result_fast.trials]
    if seed_aucs != fast_aucs:
        raise RuntimeError("refinement AUCs diverged from the seed path")
    rows.append(
        MiningBenchRow(
            "refine",
            f"plans={load['grid'].size()} folds={load['folds']}",
            refine_seed,
            refine_fast,
        )
    )

    # -- crossval fit: the folds' trees grown alone vs together ---------
    test_folds = stratified_folds(
        dataset, load["folds"], np.random.default_rng(scale.seed)
    )
    trains = [
        dataset.subset(np.setdiff1d(np.arange(len(dataset)), test))
        for test in test_folds
    ]

    def alone() -> list[C45DecisionTree]:
        return [C45DecisionTree(**factory_args).fit(train) for train in trains]

    def together() -> list[C45DecisionTree]:
        trees = [C45DecisionTree(**factory_args) for _ in trains]
        fit_trees(trees, trains)
        return trees

    for one, batched in zip(alone(), together()):
        if pickle.dumps(one.root) != pickle.dumps(batched.root):
            raise RuntimeError("fold-batched growth diverged from a lone fit")
    passes = (_fit_counts(alone)[0], _fit_counts(together)[0])
    rows.append(
        MiningBenchRow(
            "crossval fit",
            f"folds={load['folds']} split passes {passes[0]} -> {passes[1]}",
            _best_of(alone, load["repeats"]),
            _best_of(together, load["repeats"]),
            passes,
        )
    )

    # -- grid fit: a grid's fold trees fitted plan by plan vs joined ----
    # Each plan's training folds are built as the sweep builds them,
    # with its own (seed, index) generator.
    factory = lambda: C45DecisionTree(**factory_args)  # noqa: E731
    plan_sets = [
        train_folds(
            dataset,
            factory,
            load["folds"],
            np.random.default_rng((scale.seed, index)),
            plan.apply,
        ).tree_sets
        for index, plan in enumerate(load["grid"].plans())
    ]

    def per_plan() -> list[C45DecisionTree]:
        trees = []
        for sets in plan_sets:
            batch = [factory() for _ in sets]
            fit_trees(batch, sets)
            trees.extend(batch)
        return trees

    def joined() -> list[C45DecisionTree]:
        sets = [train for sets in plan_sets for train in sets]
        trees = [factory() for _ in sets]
        fit_trees(trees, sets)
        return trees

    for one, batched in zip(per_plan(), joined()):
        if pickle.dumps(one.root) != pickle.dumps(batched.root):
            raise RuntimeError("grid-joined growth diverged from per-plan growth")
    (passes_plan, levels_plan), (passes_joined, levels_joined) = (
        _fit_counts(per_plan),
        _fit_counts(joined),
    )
    rows.append(
        MiningBenchRow(
            "grid fit",
            f"plans={len(plan_sets)} split passes {passes_plan} -> "
            f"{passes_joined}, levels {levels_plan} -> {levels_joined}",
            _best_of(per_plan, load["repeats"]),
            _best_of(joined, load["repeats"]),
            (passes_plan, passes_joined),
            (levels_plan, levels_joined),
        )
    )
    return rows


def render(rows: list[MiningBenchRow]) -> str:
    return render_table(
        ["Stage", "Workload", "Baseline ms", "Optimized ms", "Speedup"],
        [row.cells() for row in rows],
        title=(
            "R-4: mining data-plane throughput (presorted vs seed engine; "
            "crossval fit: folds alone vs together; grid fit: per plan vs joined)"
        ),
    )


def main(argv: list[str] | None = None) -> str:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", default="bench", choices=("smoke", "bench", "paper"))
    args = parser.parse_args(argv)
    table = render(run(args.scale))
    print(table)
    return table


if __name__ == "__main__":
    main()
