"""Equivalence properties of the vectorised mining data plane.

The presorted induction engine, the batch routing path, the kNN batch
queries and the reuse caches all carry the same hard contract: **bit
identity** with the naive reference implementations they replace
(for C4.5 induction and routing, the seed engine kept in
``tests/mining/_c45_reference.py``).
These properties drive randomly generated datasets -- missing values,
infinities, duplicated (quantised) values, fractional instance
weights -- through both paths and compare raw bytes, plus a
fixed-seed regression pinning the Step 4 refinement ranking.
"""

import pickle

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.preprocess import PreprocessingPlan
from repro.core.refine import RefinementGrid, refine
from repro.mining.cache import clear_reuse_caches, reuse_caches_disabled
from repro.mining.crossval import stratified_folds
from repro.mining.dataset import Attribute, Dataset
from repro.mining.knn import NearestNeighbours
from repro.mining.sampling import smote
from repro.mining.tree import C45DecisionTree
from tests.mining import _c45_reference as reference
from tests.mining._smote_reference import per_seed_neighbours


@st.composite
def datasets(draw) -> Dataset:
    """Random small mixed dataset exercising the data plane's edges.

    Numeric columns mix continuous, quantised (heavy duplicate values)
    and constant flavours; cells may be NaN or +/-inf; instance
    weights may be fractional (as missing-value routing produces).
    """
    n = draw(st.integers(12, 70))
    n_numeric = draw(st.integers(1, 4))
    n_nominal = draw(st.integers(0, 2))
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
    if draw(st.booleans()):
        x[:, :n_numeric][rng.random((n, n_numeric)) < 0.15] = np.nan
    if draw(st.booleans()):
        x[:, :n_numeric][rng.random((n, n_numeric)) < 0.05] = np.inf
        x[:, :n_numeric][rng.random((n, n_numeric)) < 0.05] = -np.inf
    y = rng.integers(0, draw(st.integers(2, 3)), n)
    y[0], y[1] = 0, 1
    weights = None
    if draw(st.booleans()):
        weights = rng.uniform(0.25, 2.0, n)
    return Dataset(
        attributes,
        Attribute.nominal("class", ("c0", "c1", "c2")),
        x,
        y,
        weights=weights,
        name="random",
    )


@given(dataset=datasets(), prune=st.booleans(), mlw=st.sampled_from([1.0, 2.0, 4.0]))
@settings(deadline=None, max_examples=60)
def test_presorted_fit_bit_identical(dataset, prune, mlw):
    naive = reference.ReferenceC45DecisionTree(prune=prune, min_leaf_weight=mlw)
    fast = C45DecisionTree(prune=prune, min_leaf_weight=mlw)
    naive.fit(dataset)
    fast.fit(dataset)
    assert pickle.dumps(naive.root) == pickle.dumps(fast.root)


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
def test_smote_bit_identical_with_and_without_caches(dataset, level, k):
    if int(np.count_nonzero(dataset.y == 1)) < 2:
        return
    clear_reuse_caches()
    with reuse_caches_disabled(), per_seed_neighbours():
        reference = smote(dataset, level, k, np.random.default_rng(11))
    cached = smote(dataset, level, k, np.random.default_rng(11))
    again = smote(dataset, level, k, np.random.default_rng(11))  # cache hit
    for candidate in (cached, again):
        assert candidate.x.tobytes() == reference.x.tobytes()
        assert candidate.y.tobytes() == reference.y.tobytes()
        assert candidate.weights.tobytes() == reference.weights.tobytes()


@given(dataset=datasets(), k=st.integers(2, 4))
@settings(deadline=None, max_examples=25)
def test_fold_partition_cache_replays_partition_and_rng_state(dataset, k):
    if len(dataset) < 2 * k:
        return
    clear_reuse_caches()
    with reuse_caches_disabled():
        rng = np.random.default_rng(5)
        reference = stratified_folds(dataset, k, rng)
        tail_reference = rng.random(4)
    rng = np.random.default_rng(5)
    miss = stratified_folds(dataset, k, rng)  # populates the cache
    tail_miss = rng.random(4)
    rng = np.random.default_rng(5)
    hit = stratified_folds(dataset, k, rng)  # replays it
    tail_hit = rng.random(4)
    for candidate, tail in ((miss, tail_miss), (hit, tail_hit)):
        assert len(candidate) == len(reference)
        for fold, expected in zip(candidate, reference):
            assert np.array_equal(fold, expected)
        # The generator must leave a cache hit exactly where the
        # computation would have left it.
        assert tail.tobytes() == tail_reference.tobytes()


def _mini_refine(learner: type[C45DecisionTree]):
    """A seconds-scale Step 4 sweep with a process-local factory."""
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
    dataset = Dataset(
        [
            Attribute.numeric("a"),
            Attribute.numeric("b"),
            Attribute.nominal("m", ("p", "q", "r")),
        ],
        Attribute.nominal("class", ("neg", "pos")),
        x,
        y,
    )
    grid = RefinementGrid(
        undersample_levels=(30.0, 80.0),
        oversample_levels=(150.0,),
        neighbour_counts=(1, 3),
        base_plan=PreprocessingPlan(),
    )
    factory = lambda: learner()  # noqa: E731
    clear_reuse_caches()
    return refine(dataset, factory, grid, folds=3, seed=9)


def test_refine_fixed_seed_ranking_matches_seed_path():
    """The full data plane reproduces the seed path's sweep exactly."""
    with reuse_caches_disabled(), per_seed_neighbours():
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
