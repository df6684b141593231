"""Equivalence properties of the vectorised mining data plane.

The presorted induction engine, the batch routing path, the kNN batch
queries, SMOTE and stratified fold dealing all carry the same hard
contract: **bit identity** with the naive reference implementations
they replace (for C4.5 induction and routing, the seed engine kept in
``tests/mining/_c45_reference.py``; for SMOTE and fold dealing, the
loops in ``_smote_reference.py`` and ``_fold_reference.py``).
These properties drive randomly generated datasets -- missing values,
infinities, duplicated (quantised) values, fractional instance
weights -- through both paths and compare raw bytes, plus a
fixed-seed regression pinning the Step 4 refinement ranking.
"""

import pickle
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro import observability as obs
from repro.core import refine as refine_module
from repro.core.preprocess import PreprocessingPlan
from repro.core.refine import RefinementGrid, RefinementResult, RefinementTrial, refine
from repro.mining.crossval import cross_validate, stratified_folds
from repro.mining.dataset import Attribute, Dataset
from repro.mining.knn import KNNClassifier, NearestNeighbours
from repro.mining.sampling import oversample_minority, smote, undersample_majority
from repro.mining.tree import C45DecisionTree, fit_trees, induction
from tests.mining import _c45_reference as reference
from tests.mining._fold_reference import round_robin_folds
from tests.mining._smote_reference import per_seed_neighbours


@st.composite
def datasets(
    draw, min_rows: int = 12, max_rows: int = 70, always_missing: bool = False
) -> Dataset:
    """Random small mixed dataset exercising the data plane's edges.

    Numeric columns mix continuous, quantised (heavy duplicate values)
    and constant flavours; cells may be NaN or +/-inf; instance
    weights may be fractional (as missing-value routing produces).
    ``always_missing`` makes every dataset hold NaN cells, nominal ones
    included, and fractional weights.
    """
    n = draw(st.integers(min_rows, max_rows))
    n_numeric = draw(st.integers(1, 4))
    n_nominal = draw(st.integers(1 if always_missing else 0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    attributes = []
    columns = []
    for i in range(n_numeric):
        attributes.append(Attribute.numeric(f"num{i}"))
        flavour = draw(st.sampled_from(["continuous", "quantised", "constant"]))
        if flavour == "continuous":
            column = rng.normal(0, draw(st.sampled_from([1.0, 1e6])), n)
        elif flavour == "quantised":
            column = rng.integers(0, 6, n).astype(float)
        else:
            column = np.full(n, 3.25)
        columns.append(column)
    for i in range(n_nominal):
        k = draw(st.integers(2, 4))
        attributes.append(
            Attribute.nominal(f"nom{i}", tuple(f"v{j}" for j in range(k)))
        )
        columns.append(rng.integers(0, k, n).astype(float))
    x = np.column_stack(columns)
    if always_missing or draw(st.booleans()):
        x[:, :n_numeric][rng.random((n, n_numeric)) < 0.15] = np.nan
    if draw(st.booleans()):
        x[:, :n_numeric][rng.random((n, n_numeric)) < 0.05] = np.inf
        x[:, :n_numeric][rng.random((n, n_numeric)) < 0.05] = -np.inf
    if always_missing:
        x[:, n_numeric:][rng.random((n, n_nominal)) < 0.1] = np.nan
    y = rng.integers(0, draw(st.integers(2, 3)), n)
    y[0], y[1] = 0, 1
    weights = None
    if always_missing or draw(st.booleans()):
        weights = rng.uniform(0.25, 2.0, n)
    return Dataset(
        attributes,
        Attribute.nominal("class", ("c0", "c1", "c2")),
        x,
        y,
        weights=weights,
        name="random",
    )


@st.composite
def training_subsets(draw, dataset: Dataset) -> Dataset:
    """A training set drawn from ``dataset`` the ways Steps 2-3 make
    them: a cross-validation fold (ascending rows), a fold with copies
    of its rows appended (oversampling), a bootstrap sample (rows
    repeated, any order), or a few rows (a tree that stops at once)."""
    n = len(dataset)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    kind = draw(st.sampled_from(["fold", "oversampled", "bootstrap", "tiny"]))
    if kind == "bootstrap":
        return dataset.subset(rng.choice(n, n, replace=True))
    if kind == "tiny":
        size = draw(st.integers(1, 3))
        return dataset.subset(np.sort(rng.choice(n, size, replace=False)))
    keep = draw(st.sampled_from([0.5, 0.8, 0.9]))
    rows = np.flatnonzero(rng.random(n) < keep)
    if rows.size == 0:
        rows = np.arange(1)
    fold = dataset.subset(rows)
    if kind == "oversampled":
        copies = rng.choice(rows, int(rng.integers(1, rows.size + 1)))
        fold = fold.concat(dataset.subset(copies))
    return fold


@given(
    dataset=datasets(),
    prune=st.booleans(),
    mlw=st.sampled_from([1.0, 2.0, 4.0]),
    data=st.data(),
)
@settings(deadline=None, max_examples=60, print_blob=True)
def test_presorted_fit_bit_identical(dataset, prune, mlw, data):
    naive = reference.ReferenceC45DecisionTree(prune=prune, min_leaf_weight=mlw)
    fast = C45DecisionTree(prune=prune, min_leaf_weight=mlw)
    naive.fit(dataset)
    fast.fit(dataset)
    assert pickle.dumps(naive.root) == pickle.dumps(fast.root)

    # Fold-batched: k training sets grown together, each tree equal to
    # the reference fitted on its set alone.
    k = data.draw(st.integers(1, 5), label="k")
    subsets = [data.draw(training_subsets(dataset)) for _ in range(k)]
    batched = [C45DecisionTree(prune=prune, min_leaf_weight=mlw) for _ in subsets]
    fit_trees(batched, subsets)
    for tree, subset in zip(batched, subsets):
        alone = reference.ReferenceC45DecisionTree(
            prune=prune, min_leaf_weight=mlw
        ).fit(subset)
        assert pickle.dumps(tree.root) == pickle.dumps(alone.root)


class _CheckedGrower(induction._PresortedGrower):
    """The grower, checking at every depth that each node's sort orders
    are the canonical ones a stable argsort of the node's column gives:
    known values by (value, node position), then the missing ones."""

    def _grow_level(self, level, depth):
        starts = level.start.tolist()
        for i, (a, b) in enumerate(zip(starts, starts[1:])):
            for t, column in enumerate(level.xt[:, a:b]):
                known = int(np.count_nonzero(~np.isnan(column)))
                assert level.known[i, t] == known
                order = level.order[t, a:b] - a
                canonical = np.argsort(column, kind="stable")
                assert np.array_equal(order[:known], canonical[:known])
                assert np.array_equal(np.sort(order[known:]), np.sort(canonical[known:]))
        return super()._grow_level(level, depth)


@given(
    dataset=datasets(min_rows=100, max_rows=400, always_missing=True),
    prune=st.booleans(),
    presorted=st.booleans(),
    seed=st.integers(0, 2**31),
    max_depth=st.integers(0, 4),
)
@settings(deadline=None, max_examples=30, print_blob=True)
def test_grid_batch_fit_bit_identical(dataset, prune, presorted, seed, max_depth):
    """One fit_trees batch of the training sets a Step 4 grid makes of
    one dataset -- undersampled, oversampled and SMOTE -- plus a depth-
    capped tree: each tree's pickle equals the reference fitted on its
    own set, and every node's derived sort orders are the ones sorting
    its columns afresh gives.  At 100-400 rows with NaN cells and
    fractional weights, children derive their orders from big parents
    and take routed missing values, with value ties between routed and
    branch rows."""
    assume(int(np.count_nonzero(dataset.y == 1)) >= 2)
    if presorted:
        # As in a sweep: resampled sets derive their sort orders.
        dataset.presort()
    rng = np.random.default_rng(seed)
    sets = [
        undersample_majority(dataset, 40.0, rng),
        oversample_minority(dataset, 200.0, rng),
        smote(dataset, 300.0, 3, rng),
        dataset,
    ]
    depths = [None, None, None, max_depth]
    trees = [C45DecisionTree(prune=prune, max_depth=depth) for depth in depths]
    with mock.patch.object(induction, "_PresortedGrower", _CheckedGrower):
        fit_trees(trees, sets)
    for tree, train, depth in zip(trees, sets, depths):
        alone = reference.ReferenceC45DecisionTree(prune=prune, max_depth=depth)
        alone.fit(train)
        assert pickle.dumps(tree.root) == pickle.dumps(alone.root)


@given(
    dataset=datasets(),
    k=st.integers(2, 4),
    level=st.sampled_from([100.0, 300.0]),
    neighbours=st.integers(1, 3),
)
@settings(deadline=None, max_examples=30, print_blob=True)
def test_cross_validate_fold_batched_matches_reference(
    dataset, k, level, neighbours
):
    """Fold trees grown together score fold for fold as the reference
    grows them one fold at a time, SMOTE-resampled training folds
    included."""
    assume(int(np.count_nonzero(dataset.y == 1)) > k)

    def preprocess(train, rng):
        return smote(train, level, neighbours, rng)

    results = [
        cross_validate(
            dataset,
            learner,
            k=k,
            rng=np.random.default_rng(7),
            preprocess=preprocess,
        )
        for learner in (reference.ReferenceC45DecisionTree, C45DecisionTree)
    ]
    naive, fast = results
    assert len(naive.folds) == len(fast.folds) == k
    for a, b in zip(naive.folds, fast.folds):
        assert a.confusion.matrix.tobytes() == b.confusion.matrix.tobytes()
        assert a.complexity == b.complexity


@given(dataset=datasets())
@settings(deadline=None, max_examples=40)
def test_batch_distribution_matches_per_row_descent(dataset):
    tree = C45DecisionTree().fit(dataset)
    queries = np.vstack([dataset.x, np.full((2, dataset.x.shape[1]), np.nan)])
    batch = tree.distribution(queries)
    per_row = reference.distribution(tree, queries)
    assert batch.tobytes() == per_row.tobytes()


@given(dataset=datasets())
@settings(deadline=None, max_examples=25)
def test_distances_many_matches_per_row(dataset):
    index = NearestNeighbours(dataset)
    matrix = index.distances_many(dataset.x)
    for i in range(len(dataset)):
        assert matrix[i].tobytes() == index.distances(dataset.x[i]).tobytes()


@given(dataset=datasets(), k=st.integers(1, 15))
@settings(deadline=None, max_examples=25)
def test_neighbour_table_is_prefix_of_per_row_queries(dataset, k):
    index = NearestNeighbours(dataset)
    table = index.neighbour_table(15)
    for i in range(len(dataset)):
        reference = index.neighbours(dataset.x[i], k, exclude=i)
        assert np.array_equal(table[i][:k], reference)


@given(dataset=datasets(), level=st.sampled_from([80.0, 300.0]), k=st.integers(1, 7))
@settings(deadline=None, max_examples=25)
def test_smote_equals_per_seed_reference(dataset, level, k):
    if int(np.count_nonzero(dataset.y == 1)) < 2:
        return
    with per_seed_neighbours():
        reference = smote(dataset, level, k, np.random.default_rng(11))
    candidate = smote(dataset, level, k, np.random.default_rng(11))
    assert candidate.x.tobytes() == reference.x.tobytes()
    assert candidate.y.tobytes() == reference.y.tobytes()
    assert candidate.weights.tobytes() == reference.weights.tobytes()


@given(
    dataset=datasets(min_rows=4),
    k=st.integers(2, 10),
    seed=st.integers(0, 2**31),
)
@settings(deadline=None, max_examples=60)
def test_stratified_folds_equal_round_robin_reference(dataset, k, seed):
    if len(dataset) < k:
        return
    rng = np.random.default_rng(seed)
    reference = round_robin_folds(dataset, k, rng)
    tail_reference = rng.random(4)
    rng = np.random.default_rng(seed)
    folds = stratified_folds(dataset, k, rng)
    # The generator must be left where the dealing loop leaves it.
    tail = rng.random(4)
    assert len(folds) == len(reference)
    for fold, expected in zip(folds, reference):
        assert fold.dtype == expected.dtype
        assert fold.tobytes() == expected.tobytes()
    assert tail.tobytes() == tail_reference.tobytes()


def _mini_dataset() -> Dataset:
    rng = np.random.default_rng(3)
    n = 160
    x = np.column_stack(
        [
            rng.integers(0, 12, n).astype(float),
            rng.normal(size=n),
            rng.integers(0, 3, n).astype(float),
        ]
    )
    x[:, :2][rng.random((n, 2)) < 0.05] = np.nan
    y = (x[:, 0] * 0.3 + np.nan_to_num(x[:, 1]) > 2.5).astype(np.int64)
    y[:4] = 1
    return Dataset(
        [
            Attribute.numeric("a"),
            Attribute.numeric("b"),
            Attribute.nominal("m", ("p", "q", "r")),
        ],
        Attribute.nominal("class", ("neg", "pos")),
        x,
        y,
    )


def _mini_refine(learner: type[C45DecisionTree]):
    """A seconds-scale Step 4 sweep with a process-local factory."""
    dataset = _mini_dataset()
    grid = RefinementGrid(
        undersample_levels=(30.0, 80.0),
        oversample_levels=(150.0,),
        neighbour_counts=(1, 3),
        base_plan=PreprocessingPlan(),
    )
    factory = lambda: learner()  # noqa: E731
    return refine(dataset, factory, grid, folds=3, seed=9)


def test_refine_fixed_seed_ranking_matches_seed_path():
    """The full data plane reproduces the seed path's sweep exactly."""
    with per_seed_neighbours():
        seed = _mini_refine(reference.ReferenceC45DecisionTree)
    optimized = _mini_refine(C45DecisionTree)
    ref_rank = [
        (t.plan.sampling, t.plan.level, t.plan.neighbours, t.key)
        for t in seed.ranked()
    ]
    opt_rank = [
        (t.plan.sampling, t.plan.level, t.plan.neighbours, t.key)
        for t in optimized.ranked()
    ]
    assert ref_rank == opt_rank
    assert [t.evaluation.mean_auc for t in seed.trials] == [
        t.evaluation.mean_auc for t in optimized.trials
    ]
    assert optimized.best.plan == seed.best.plan


def _refine_against_per_plan_loop(monkeypatch, factory, bounds):
    """Run the sweep at every batch bound of ``bounds`` against
    cross-validating plan by plan, trial for trial; return each
    sweep's ``refine.trial`` spans in start order."""
    dataset = _mini_dataset()
    grid = RefinementGrid(
        undersample_levels=(30.0, 80.0),
        oversample_levels=(150.0, 300.0),
        neighbour_counts=(1, 3),
        base_plan=PreprocessingPlan(),
    )
    loop = [
        RefinementTrial(
            plan,
            cross_validate(
                dataset,
                factory,
                k=3,
                rng=np.random.default_rng((9, index)),
                preprocess=plan.apply,
            ),
        )
        for index, plan in enumerate(grid.plans())
    ]
    expected = RefinementResult(loop, max(loop, key=lambda t: t.key))
    traces = []
    for bound in bounds:
        monkeypatch.setattr(refine_module, "_BATCH_CELLS", bound)
        with obs.tracing() as tracer:
            result = refine(dataset, factory, grid, folds=3, seed=9)
        assert len(result.trials) == len(loop)
        for got, want in zip(result.trials, loop):
            assert got.plan == want.plan
            for a, b in zip(got.evaluation.folds, want.evaluation.folds):
                assert a.confusion.matrix.tobytes() == b.confusion.matrix.tobytes()
                assert a.complexity == b.complexity
        assert [(t.plan, t.key) for t in result.ranked()] == [
            (t.plan, t.key) for t in expected.ranked()
        ]
        assert result.best.plan == expected.best.plan
        traces.append(
            sorted(
                (s for s in tracer.spans if s.name == "refine.trial"),
                key=lambda s: s.start_ns,
            )
        )
    return traces


def test_refine_grid_batch_equals_per_plan_loop(monkeypatch):
    """The sweep grows many plans' fold trees in one batch; it must
    equal cross-validating plan by plan, trial for trial, whichever
    plans share a batch."""
    # The default bound holds the whole grid; 1 cell makes every plan
    # its own batch, 4,500 cells (1,500 rows) a few plans per batch.
    _refine_against_per_plan_loop(
        monkeypatch,
        lambda: C45DecisionTree(),  # a lambda keeps the sweep serial
        (refine_module._BATCH_CELLS, 1, 4500),
    )
    # A learner other than C4.5 is fitted in its folds, so there is
    # nothing to grow together: each plan is scored before the next
    # one trains, and no plan's models are held, at any bound.
    traces = _refine_against_per_plan_loop(
        monkeypatch,
        lambda: KNNClassifier(k=3),
        (refine_module._BATCH_CELLS, 1),
    )
    for spans in traces:
        phases = [(s.attributes["index"], s.attributes["phase"]) for s in spans]
        assert phases == [
            (index, phase)
            for index in range(len(spans) // 2)
            for phase in ("train", "score")
        ]
