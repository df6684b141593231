"""The seed C4.5 induction engine, kept verbatim as a test oracle.

This is the implementation :mod:`repro.mining.tree.induction` shipped
before the presorted grower replaced it: every node re-sorts its
numeric columns and copies its rows (``_grow``, ``_best_split``,
``_numeric_split``, ``_nominal_split``), and prediction descends the
tree one row at a time (``_descend``).  The production engine must
grow the same trees and route the same class distributions, bit for
bit.  ``tests/mining/test_tree_fastpath.py`` and
``tests/observability/test_differential.py`` compare the two, and
``benchmarks/mining_bench.py`` times the production engine against
this one.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro import observability as obs
from repro.mining.dataset import Attribute, Dataset
from repro.mining.tree.induction import (
    _EPSILON,
    C45DecisionTree,
    _entropy,
    _threshold_between,
)
from repro.mining.tree.node import DecisionNode, LeafNode, TreeNode
from repro.mining.tree.pruning import prune_tree

__all__ = ["ReferenceC45DecisionTree", "distribution"]


@dataclasses.dataclass
class _Split:
    """A candidate split with the statistics needed to rank it."""

    attribute_index: int
    gain: float
    gain_ratio: float
    threshold: float | None  # None for nominal splits


class ReferenceC45DecisionTree(C45DecisionTree):
    """:class:`C45DecisionTree` grown and queried by the seed engine."""

    def fit(self, dataset: Dataset) -> "ReferenceC45DecisionTree":
        if len(dataset) == 0:
            raise ValueError("cannot fit a decision tree on an empty dataset")
        with obs.span("c45.fit", instances=len(dataset)) as fit_span:
            self._remember_schema(dataset)
            self._attributes = dataset.attributes
            self._n_classes = dataset.n_classes
            root = self._grow(dataset.x, dataset.y, dataset.weights, depth=0)
            if self.prune:
                root = prune_tree(root, self.confidence_factor)
            self.root = root
            fit_span.count("nodes", root.node_count())
        return self

    def distribution(self, x: np.ndarray) -> np.ndarray:
        return distribution(self, x)

    def _class_weights(self, y: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.bincount(y, weights=w, minlength=self._n_classes)

    def _grow(
        self, x: np.ndarray, y: np.ndarray, w: np.ndarray, depth: int
    ) -> TreeNode:
        class_weights = self._class_weights(y, w)
        total = class_weights.sum()
        # Stop: pure node, not enough weight for two branches, or depth cap.
        if (
            total < 2 * self.min_leaf_weight
            or np.count_nonzero(class_weights) <= 1
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return LeafNode(class_weights)

        split = self._best_split(x, y, w, total)
        if split is None:
            return LeafNode(class_weights)

        attribute = self._attributes[split.attribute_index]
        column = x[:, split.attribute_index]
        known = ~np.isnan(column)

        if attribute.is_numeric:
            assert split.threshold is not None
            branch_masks = [
                known & (column <= split.threshold),
                known & (column > split.threshold),
            ]
        else:
            branch_masks = [
                known & (column == v) for v in range(len(attribute.values))
            ]

        branch_weights = np.array([w[mask].sum() for mask in branch_masks])
        known_total = branch_weights.sum()
        if known_total <= 0:
            return LeafNode(class_weights)
        fractions = branch_weights / known_total

        children: list[TreeNode] = []
        missing = ~known
        has_missing = bool(missing.any())
        for mask, fraction in zip(branch_masks, fractions):
            if has_missing and fraction > 0:
                # Route missing-value instances down this branch with a
                # fraction of their weight (C4.5's fractional instances).
                branch_x = np.vstack([x[mask], x[missing]])
                branch_y = np.concatenate([y[mask], y[missing]])
                branch_w = np.concatenate([w[mask], w[missing] * fraction])
            else:
                branch_x, branch_y, branch_w = x[mask], y[mask], w[mask]
            if branch_w.sum() <= 0:
                children.append(LeafNode(class_weights.copy()))
            else:
                children.append(self._grow(branch_x, branch_y, branch_w, depth + 1))

        return DecisionNode(
            class_weights=class_weights,
            attribute=attribute,
            attribute_index=split.attribute_index,
            threshold=split.threshold,
            children=children,
            branch_weights=branch_weights,
        )

    # ------------------------------------------------------------------
    # Split selection
    # ------------------------------------------------------------------
    def _best_split(
        self, x: np.ndarray, y: np.ndarray, w: np.ndarray, total: float
    ) -> _Split | None:
        candidates: list[_Split] = []
        for j, attribute in enumerate(self._attributes):
            if attribute.is_numeric:
                candidate = self._numeric_split(j, x[:, j], y, w, total)
            else:
                candidate = self._nominal_split(j, attribute, x[:, j], y, w, total)
            if candidate is not None and candidate.gain > _EPSILON:
                candidates.append(candidate)
        if not candidates:
            return None
        # C4.5's average-gain gate: only splits with at least average
        # gain compete on gain ratio.
        average_gain = sum(c.gain for c in candidates) / len(candidates)
        admissible = [c for c in candidates if c.gain + _EPSILON >= average_gain]
        return max(admissible, key=lambda c: (c.gain_ratio, c.gain))

    def _numeric_split(
        self, j: int, column: np.ndarray, y: np.ndarray, w: np.ndarray, total: float
    ) -> _Split | None:
        known = ~np.isnan(column)
        if not known.any():
            return None
        values = column[known]
        labels = y[known]
        weights = w[known]
        known_weight = weights.sum()
        if known_weight < 2 * self.min_leaf_weight:
            return None

        order = np.argsort(values, kind="stable")
        values = values[order]
        labels = labels[order]
        weights = weights[order]

        # Weighted class counts cumulated over the sorted column.
        one_hot = np.zeros((len(labels), self._n_classes))
        one_hot[np.arange(len(labels)), labels] = weights
        left_counts = np.cumsum(one_hot, axis=0)
        total_counts = left_counts[-1]
        parent_entropy = _entropy(total_counts)

        # Candidate boundaries: between adjacent distinct values.
        boundaries = np.flatnonzero(np.diff(values) > 0)
        if boundaries.size == 0:
            return None
        left = left_counts[boundaries]
        right = total_counts - left
        left_weight = left.sum(axis=1)
        right_weight = right.sum(axis=1)
        feasible = (left_weight >= self.min_leaf_weight) & (
            right_weight >= self.min_leaf_weight
        )
        if not feasible.any():
            return None
        left, right = left[feasible], right[feasible]
        left_weight, right_weight = left_weight[feasible], right_weight[feasible]
        boundaries = boundaries[feasible]

        info = (
            left_weight * _entropy_rows(left)
            + right_weight * _entropy_rows(right)
        ) / known_weight
        gains = (known_weight / total) * (parent_entropy - info)
        best = int(np.argmax(gains))
        gain = float(gains[best])
        if gain <= _EPSILON:
            return None

        threshold = _threshold_between(
            values[boundaries[best]], values[boundaries[best] + 1]
        )
        split_info = _split_info(
            np.array([left_weight[best], right_weight[best]]),
            total - known_weight,
            total,
        )
        if split_info <= _EPSILON:
            return None
        return _Split(j, gain, gain / split_info, threshold)

    def _nominal_split(
        self,
        j: int,
        attribute: Attribute,
        column: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        total: float,
    ) -> _Split | None:
        known = ~np.isnan(column)
        if not known.any():
            return None
        values = column[known].astype(np.int64)
        labels = y[known]
        weights = w[known]
        known_weight = weights.sum()

        n_values = len(attribute.values)
        counts = np.zeros((n_values, self._n_classes))
        np.add.at(counts, (values, labels), weights)
        branch_weight = counts.sum(axis=1)
        # C4.5 requires at least two branches with min_leaf_weight.
        if np.count_nonzero(branch_weight >= self.min_leaf_weight) < 2:
            return None

        parent_entropy = _entropy(counts.sum(axis=0))
        info = float(
            (branch_weight * _entropy_rows(counts)).sum() / known_weight
        )
        gain = (known_weight / total) * (parent_entropy - info)
        if gain <= _EPSILON:
            return None
        split_info = _split_info(branch_weight, total - known_weight, total)
        if split_info <= _EPSILON:
            return None
        return _Split(j, float(gain), float(gain / split_info), None)


def distribution(tree: C45DecisionTree, x: np.ndarray) -> np.ndarray:
    """Class distributions of ``x`` by per-row recursive descent through
    any fitted tree (the seed ``distribution``)."""
    tree._check_fitted()
    if tree.root is None:
        raise RuntimeError("tree has no root")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = np.empty((len(x), tree._n_classes))
    for i, row in enumerate(x):
        out[i] = _descend(tree.root, row)
    return out


def _descend(node: TreeNode, row: np.ndarray) -> np.ndarray:
    if isinstance(node, LeafNode):
        return node.distribution()
    assert isinstance(node, DecisionNode)
    branch = node.branch_of(row[node.attribute_index])
    if branch is not None:
        return _descend(node.children[branch], row)
    # Missing value: blend all branches by their training fractions.
    fractions = node.branch_fractions()
    blended = np.zeros(len(node.class_weights))
    for fraction, child in zip(fractions, node.children):
        if fraction > 0:
            blended += fraction * _descend(child, row)
    return blended


def _entropy_rows(counts: np.ndarray) -> np.ndarray:
    """Row-wise entropy for a (rows, classes) count matrix."""
    totals = counts.sum(axis=1, keepdims=True)
    p = counts / np.maximum(totals, 1e-300)
    logs = np.zeros_like(p)
    positive = p > 0
    logs[positive] = np.log2(p[positive])
    return -(p * logs).sum(axis=1)


def _split_info(
    branch_weights: np.ndarray, missing_weight: float, total: float
) -> float:
    """C4.5 split information, counting missing values as a branch."""
    parts = list(branch_weights[branch_weights > 0])
    if missing_weight > 0:
        parts.append(missing_weight)
    info = 0.0
    for part in parts:
        fraction = part / total
        info -= fraction * math.log2(fraction)
    return info
