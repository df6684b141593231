"""Unit and property tests for C4.5 decision tree induction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mining.dataset import Attribute, Dataset
from repro.mining.tree import C45DecisionTree, render_tree, tree_to_rules
from repro.mining.tree.induction import _entropy, _threshold_between
from repro.mining.tree.node import DecisionNode, LeafNode
from tests.conftest import make_mixed, make_separable
from tests.mining._c45_reference import _entropy_rows


class TestEntropy:
    def test_pure_is_zero(self):
        assert _entropy(np.array([10.0, 0.0])) == 0.0

    def test_uniform_binary_is_one(self):
        assert _entropy(np.array([5.0, 5.0])) == pytest.approx(1.0)

    def test_empty_is_zero(self):
        assert _entropy(np.array([0.0, 0.0])) == 0.0

    def test_rows_matches_scalar(self):
        counts = np.array([[3.0, 1.0], [5.0, 5.0], [0.0, 4.0]])
        rows = _entropy_rows(counts)
        for i in range(3):
            assert rows[i] == pytest.approx(_entropy(counts[i]))

    @given(
        a=st.floats(0, 1000, allow_nan=False),
        b=st.floats(0, 1000, allow_nan=False),
    )
    def test_entropy_bounds_binary(self, a, b):
        assert 0.0 <= _entropy(np.array([a, b])) <= 1.0 + 1e-9


class TestThresholdBetween:
    def test_normal_midpoint(self):
        assert _threshold_between(1.0, 2.0) == 1.5

    def test_adjacent_floats_fall_back_to_lo(self):
        lo = 1.0
        hi = math.nextafter(lo, math.inf)
        t = _threshold_between(lo, hi)
        assert lo <= t < hi

    def test_huge_magnitudes_no_overflow(self):
        t = _threshold_between(1e308, 1.7e308)
        assert math.isfinite(t)
        assert 1e308 <= t < 1.7e308

    @given(
        lo=st.floats(-1e300, 1e300, allow_nan=False),
        delta=st.floats(1e-12, 1e300, allow_nan=False),
    )
    def test_threshold_strictly_separates(self, lo, delta):
        hi = lo + delta
        if hi == lo or not math.isfinite(hi):
            return
        t = _threshold_between(lo, hi)
        assert lo <= t < hi


class TestFitting:
    def test_learns_separable_concept(self):
        ds = make_separable()
        tree = C45DecisionTree().fit(ds)
        assert (tree.predict(ds.x) == ds.y).mean() == 1.0
        # Two axis-aligned cuts suffice: tree should stay small.
        assert tree.node_count <= 9

    def test_empty_dataset_rejected(self, separable_dataset):
        empty = separable_dataset.subset(np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            C45DecisionTree().fit(empty)

    def test_pure_dataset_gives_single_leaf(self, separable_dataset):
        pure = separable_dataset.subset(separable_dataset.y == 0)
        tree = C45DecisionTree().fit(pure)
        assert isinstance(tree.root, LeafNode)
        assert tree.node_count == 1

    def test_nominal_attributes(self):
        ds = make_mixed()
        tree = C45DecisionTree().fit(ds)
        assert (tree.predict(ds.x) == ds.y).mean() >= 0.97

    def test_constant_attributes_yield_leaf(self):
        ds = Dataset(
            [Attribute.numeric("v")],
            Attribute.nominal("class", ("a", "b")),
            np.ones((20, 1)),
            np.array([0, 1] * 10),
        )
        tree = C45DecisionTree().fit(ds)
        assert isinstance(tree.root, LeafNode)

    def test_max_depth_cap(self):
        ds = make_separable(noise=0.05)
        tree = C45DecisionTree(max_depth=1, prune=False).fit(ds)
        assert tree.depth <= 1

    def test_min_leaf_weight_respected(self):
        ds = make_separable()
        tree = C45DecisionTree(min_leaf_weight=50).fit(ds)

        def check(node):
            if isinstance(node, LeafNode):
                return
            for weight, child in zip(node.branch_weights, node.children):
                # Only branches that received instances are constrained.
                if weight > 0:
                    assert weight >= 50 or isinstance(child, LeafNode)
                check(child)

        check(tree.root)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            C45DecisionTree(min_leaf_weight=0)
        with pytest.raises(ValueError):
            C45DecisionTree(confidence_factor=0.0)
        with pytest.raises(ValueError):
            C45DecisionTree(max_depth=-1)

    def test_predict_before_fit_raises(self):
        from repro.mining.base import NotFittedError

        with pytest.raises(NotFittedError):
            C45DecisionTree().predict(np.zeros((1, 2)))

    def test_instance_weights_shift_decision(self):
        # All-equal instances with conflicting labels: prediction
        # follows the heavier class.
        x = np.zeros((10, 1))
        y = np.array([0] * 5 + [1] * 5)
        w = np.array([1.0] * 5 + [3.0] * 5)
        ds = Dataset(
            [Attribute.numeric("v")],
            Attribute.nominal("class", ("a", "b")),
            x,
            y,
            weights=w,
        )
        tree = C45DecisionTree().fit(ds)
        assert tree.predict_one(np.array([0.0])) == 1

    def test_extreme_magnitudes_do_not_crash(self):
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(0, 1, 50), [1e308, -1e308, 1e-300]])
        y = np.array([0] * 50 + [1, 1, 0])
        ds = Dataset(
            [Attribute.numeric("v")],
            Attribute.nominal("class", ("a", "b")),
            x.reshape(-1, 1),
            y,
        )
        tree = C45DecisionTree().fit(ds)
        assert tree.node_count >= 1


class TestMissingValues:
    def test_missing_values_in_training(self):
        ds = make_separable(n=200)
        x = ds.x.copy()
        x[::7, 0] = np.nan
        tree = C45DecisionTree().fit(ds.replace(x=x))
        accuracy = (tree.predict(x) == ds.y).mean()
        assert accuracy >= 0.9

    def test_missing_value_prediction_blends(self):
        ds = make_separable()
        tree = C45DecisionTree().fit(ds)
        dist = tree.distribution(np.array([[np.nan, np.nan]]))[0]
        assert dist.sum() == pytest.approx(1.0)
        # Blended distribution should reflect the majority class.
        assert dist[0] > dist[1]

    def test_all_missing_column_never_split(self):
        ds = make_separable(n=100)
        x = np.column_stack([ds.x, np.full(len(ds), np.nan)])
        ds2 = Dataset(
            list(ds.attributes) + [Attribute.numeric("allnan")],
            ds.class_attribute,
            x,
            ds.y,
        )
        tree = C45DecisionTree().fit(ds2)

        def attrs(node):
            if isinstance(node, LeafNode):
                return set()
            out = {node.attribute.name}
            for child in node.children:
                out |= attrs(child)
            return out

        assert "allnan" not in attrs(tree.root)


class TestDistribution:
    def test_rows_sum_to_one(self, separable_dataset):
        tree = C45DecisionTree().fit(separable_dataset)
        dist = tree.distribution(separable_dataset.x[:25])
        assert np.allclose(dist.sum(axis=1), 1.0)

    def test_predict_is_argmax(self, separable_dataset):
        tree = C45DecisionTree().fit(separable_dataset)
        dist = tree.distribution(separable_dataset.x[:25])
        assert np.array_equal(
            tree.predict(separable_dataset.x[:25]), np.argmax(dist, axis=1)
        )


class TestExport:
    def test_render_contains_attributes(self, separable_dataset):
        tree = C45DecisionTree().fit(separable_dataset)
        text = render_tree(tree.root, separable_dataset.class_attribute.values)
        assert "v1" in text
        assert "fail" in text

    def test_rules_cover_every_leaf(self, separable_dataset):
        tree = C45DecisionTree().fit(separable_dataset)
        rules = tree_to_rules(tree.root, separable_dataset.class_attribute.values)
        assert len(rules) == tree.leaf_count

    def test_rules_partition_instance_space(self, separable_dataset):
        """Exactly one rule fires for any fully-observed instance."""
        tree = C45DecisionTree().fit(separable_dataset)
        rules = tree_to_rules(tree.root, separable_dataset.class_attribute.values)
        for row in separable_dataset.x[:50]:
            fired = 0
            for rule in rules:
                ok = all(
                    (row[c.attribute_index] <= c.value)
                    if c.op == "<="
                    else (row[c.attribute_index] > c.value)
                    for c in rule.conditions
                )
                fired += ok
            assert fired == 1


class TestNodeInvariants:
    def test_node_validation(self):
        attr = Attribute.numeric("v")
        with pytest.raises(ValueError):
            DecisionNode(
                class_weights=np.array([1.0, 1.0]),
                attribute=attr,
                attribute_index=0,
                threshold=None,  # numeric requires threshold
                children=[LeafNode(np.array([1.0, 0.0]))] * 2,
                branch_weights=np.array([1.0, 1.0]),
            )

    def test_counts(self, separable_dataset):
        tree = C45DecisionTree().fit(separable_dataset)
        assert tree.node_count == tree.root.node_count()
        assert tree.leaf_count <= tree.node_count
        assert tree.depth >= 1


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10_000), noise=st.floats(0, 0.3))
def test_fit_never_crashes_and_beats_majority(seed, noise):
    """Property: on noisy separable data the tree at least matches the
    majority-class baseline on its own training data."""
    ds = make_separable(n=120, seed=seed, noise=noise)
    tree = C45DecisionTree().fit(ds)
    accuracy = (tree.predict(ds.x) == ds.y).mean()
    majority = ds.class_counts().max() / len(ds)
    assert accuracy >= majority - 1e-9
