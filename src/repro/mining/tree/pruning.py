"""Pessimistic-error pruning (C4.5 subtree replacement).

C4.5 prunes a grown tree bottom-up: at each internal node it compares
the *estimated* error of (a) keeping the subtree with (b) replacing it
by a leaf predicting the node's majority class, and replaces when the
leaf is no worse.  The estimate is the pessimistic upper confidence
bound of the binomial error observed on the training data at confidence
factor ``CF`` (default 0.25) -- Quinlan's ``addErrs``/``UCF``
calculation, reproduced here with the same endpoint special cases:

* ``e = 0``: the bound is ``N * (1 - CF ** (1/N))``;
* ``e`` close to ``N``: no extra errors can be added;
* otherwise: the upper bound of the Wilson score interval at the
  one-sided normal quantile ``z = Phi^{-1}(1 - CF)`` with the usual
  ``+0.5`` continuity correction.

Subtree raising (grafting the largest branch) is intentionally not
implemented; the paper's complexity numbers are small enough that
replacement-only pruning reproduces the reported behaviour, and the
omission is documented in DESIGN.md.
"""

from __future__ import annotations

import math

from repro.mining.tree.node import DecisionNode, LeafNode, TreeNode

__all__ = ["prune_tree", "pessimistic_errors", "added_errors"]


def prune_tree(node: TreeNode, confidence_factor: float) -> TreeNode:
    """Return the pessimistically pruned version of ``node``."""
    return _prune(node, confidence_factor)[0]


def _prune(node: TreeNode, confidence_factor: float) -> tuple[TreeNode, float]:
    """The pruned ``node`` and the pessimistic error estimate of what it
    became: a leaf's own estimate, or the sum of its children's in
    child order.  Each subtree returns its estimate to its parent, so
    a pass visits every node once and reduces each node's weights once
    per statistic: one sum and one max (the values of
    ``node.total_weight`` and ``node.training_errors``).
    """
    weights = node.class_weights
    total_weight = float(weights.sum())
    training_errors = total_weight - float(weights.max(initial=0.0))
    if isinstance(node, LeafNode):
        return node, pessimistic_errors(
            total_weight, training_errors, confidence_factor
        )
    assert isinstance(node, DecisionNode)
    pruned = [_prune(child, confidence_factor) for child in node.children]
    node.children = [child for child, _ in pruned]
    leaf_estimate = pessimistic_errors(
        total_weight, training_errors, confidence_factor
    )
    subtree_estimate = sum(estimate for _, estimate in pruned)
    # Replace when the collapsed leaf's pessimistic error is no worse;
    # the 0.1 slack matches C4.5's implementation.  The leaf shares the
    # node's class weights, so its estimate is ``leaf_estimate``.
    if leaf_estimate <= subtree_estimate + 0.1:
        return LeafNode(node.class_weights), leaf_estimate
    return node, subtree_estimate


def pessimistic_errors(n: float, e: float, confidence_factor: float) -> float:
    """Observed errors plus the pessimistic correction: ``e + addErrs``."""
    return e + added_errors(n, e, confidence_factor)


def added_errors(n: float, e: float, confidence_factor: float) -> float:
    """Quinlan's ``addErrs``: extra errors granted at confidence ``CF``.

    ``n`` is the total instance weight at the node and ``e`` the weight
    of training errors a majority-class leaf makes there.
    """
    if n <= 0:
        return 0.0
    if e >= n:
        return 0.0
    if e < 1:
        # Upper bound for zero errors, interpolated linearly up to e=1
        # exactly as C4.5 does.
        base = n * (1.0 - confidence_factor ** (1.0 / n))
        if e <= 0:
            return base
        return base + e * (added_errors(n, 1.0, confidence_factor) - base)
    if e + 0.5 >= n:
        return max(n - e, 0.0)
    z = _normal_quantile(1.0 - confidence_factor)
    f = (e + 0.5) / n
    upper = (
        f
        + z * z / (2.0 * n)
        + z * math.sqrt(f / n - f * f / n + z * z / (4.0 * n * n))
    ) / (1.0 + z * z / n)
    # Confidence factors >= 0.5 make z negative and the "upper" bound
    # can dip below the observed rate; an error estimate below the
    # observation is meaningless for pruning, so floor at zero.
    return max(upper * n - e, 0.0)


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Implemented locally (rather than via scipy) so the tree learner has
    no dependency beyond numpy; the approximation's absolute error is
    below 1.2e-9, far tighter than pruning needs.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile probability must be in (0, 1)")
    a = (
        -3.969683028665376e01,
        2.209460984245205e02,
        -2.759285104469687e02,
        1.383577518672690e02,
        -3.066479806614716e01,
        2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01,
        1.615858368580409e02,
        -1.556989798598866e02,
        6.680131188771972e01,
        -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e00,
        -2.549732539343734e00,
        4.374664141464968e00,
        2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e00,
        3.754408661907416e00,
    )
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        return (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(
        ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
