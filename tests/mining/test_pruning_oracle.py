"""Bottom-up pessimistic pruning against its recursive definition.

``prune_tree`` hands each subtree's error estimate up to its parent.
The oracle below is the definition it replaced: after pruning a node's
children, re-walk the whole pruned subtree to sum its leaves'
estimates.  Both must prune every tree to the same shape, with the
same class weights at every node.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mining.dataset import Attribute
from repro.mining.tree import C45DecisionTree
from repro.mining.tree.node import DecisionNode, LeafNode, TreeNode
from repro.mining.tree.pruning import pessimistic_errors, prune_tree
from tests.conftest import make_separable


def reference_prune(node: TreeNode, confidence_factor: float) -> TreeNode:
    if isinstance(node, LeafNode):
        return node
    node.children = [
        reference_prune(child, confidence_factor) for child in node.children
    ]
    leaf_estimate = pessimistic_errors(
        node.total_weight, node.training_errors, confidence_factor
    )
    subtree_estimate = _reference_subtree_errors(node, confidence_factor)
    if leaf_estimate <= subtree_estimate + 0.1:
        return LeafNode(node.class_weights)
    return node


def _reference_subtree_errors(node: TreeNode, confidence_factor: float) -> float:
    if isinstance(node, LeafNode):
        return pessimistic_errors(
            node.total_weight, node.training_errors, confidence_factor
        )
    return sum(
        _reference_subtree_errors(child, confidence_factor)
        for child in node.children
    )


def shape(node: TreeNode) -> tuple:
    """A tree's structure and every node's class weights, bit for bit."""
    weights = node.class_weights.tobytes()
    if isinstance(node, LeafNode):
        return ("leaf", weights)
    return (
        "node",
        node.attribute.name,
        node.threshold,
        weights,
        tuple(shape(child) for child in node.children),
    )


_NUMERIC = Attribute.numeric("x")
_NOMINAL = Attribute.nominal("c", ("a", "b", "c"))


@st.composite
def trees(draw, classes: int = 3, depth: int = 4) -> TreeNode:
    """A tree whose every node carries the sum of its children's class
    weights, as a grown C4.5 tree does (fractional weights included)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        weights = draw(
            st.lists(
                st.one_of(
                    st.integers(0, 40).map(float),
                    st.floats(0.0, 40.0, allow_subnormal=False),
                ),
                min_size=classes,
                max_size=classes,
            )
        )
        return LeafNode(np.array(weights))
    attribute = draw(st.sampled_from((_NUMERIC, _NOMINAL)))
    arity = 2 if attribute.is_numeric else len(attribute.values)
    children = [draw(trees(classes, depth - 1)) for _ in range(arity)]
    branch_weights = np.array([child.total_weight for child in children])
    return DecisionNode(
        np.sum([child.class_weights for child in children], axis=0),
        attribute=attribute,
        attribute_index=0 if attribute.is_numeric else 1,
        threshold=0.5 if attribute.is_numeric else None,
        children=children,
        branch_weights=branch_weights,
    )


@given(
    tree=trees(),
    confidence_factor=st.sampled_from((0.01, 0.1, 0.25, 0.5, 0.75, 0.99)),
)
@settings(deadline=None, max_examples=300)
def test_prune_matches_recursive_definition(tree, confidence_factor):
    twin = copy.deepcopy(tree)
    assert shape(prune_tree(tree, confidence_factor)) == shape(
        reference_prune(twin, confidence_factor)
    )


@given(
    noise=st.sampled_from((0.05, 0.15, 0.25, 0.35)),
    seed=st.integers(0, 50),
    confidence_factor=st.sampled_from((0.05, 0.25, 0.9)),
)
@settings(deadline=None, max_examples=25)
def test_prune_matches_on_grown_trees(noise, seed, confidence_factor):
    grown = C45DecisionTree(prune=False).fit(
        make_separable(n=200, noise=noise, seed=seed)
    )
    root = grown.root
    twin = copy.deepcopy(root)
    assert shape(prune_tree(root, confidence_factor)) == shape(
        reference_prune(twin, confidence_factor)
    )
