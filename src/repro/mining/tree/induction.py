"""C4.5 decision tree induction.

Implements the classic algorithm [Quinlan 1992] the paper uses for
predicate generation:

* splits are chosen by **gain ratio**, restricted (as in C4.5) to
  candidate splits whose information gain is at least the average gain
  over all candidates -- this avoids the gain-ratio bias towards
  unbalanced splits;
* **numeric attributes** get binary splits at thresholds halfway
  between adjacent distinct values (evaluated in a single vectorised
  pass over the sorted column);
* **nominal attributes** get one branch per value;
* **missing values** contribute no information to split selection
  (gain is scaled by the known-value fraction) and are routed down all
  branches with fractional weight during both training and prediction;
* **instance weights** are respected throughout, so the same learner
  serves cost-sensitive training via Ting's instance weighting;
* after growth the tree is pruned by pessimistic-error subtree
  replacement (see :mod:`repro.mining.tree.pruning`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Sequence

import numpy as np

from repro import observability as obs
from repro.mining.base import Classifier
from repro.mining.dataset import Dataset, _merge_sorted
from repro.mining.tree.node import (
    DecisionNode,
    LeafNode,
    TreeNode,
    batch_distribution,
)
from repro.mining.tree.pruning import prune_tree

__all__ = ["C45DecisionTree", "fit_trees"]

# Gains this close to the best still count as "at least average" when
# applying the average-gain gate, mirroring C4.5's epsilon comparisons.
_EPSILON = 1e-10

# Smallest positive double: clamping probabilities to it before log2
# leaves every p > 0 bit-untouched (see _PresortedGrower._entropy_rows_fused).
_TINY = float(np.nextafter(0.0, 1.0))

# Bounds of one stacked split-search pass, in one-hot cells: a node
# joins a pass unless its zero padding would exceed _PAD_CELLS or the
# pass would outgrow _PASS_CELLS (a node larger than that runs alone).
_PAD_CELLS = 1 << 12
_PASS_CELLS = 1 << 14


@dataclasses.dataclass
class _Split:
    """A candidate split with the statistics needed to rank it."""

    attribute_index: int
    gain: float
    gain_ratio: float
    threshold: float | None  # None for nominal splits


class C45DecisionTree(Classifier):
    """C4.5 decision tree classifier.

    Parameters
    ----------
    min_leaf_weight:
        Minimum total instance weight required in at least two branches
        of a split (C4.5's ``-m``, default 2).
    confidence_factor:
        Confidence level for pessimistic-error pruning (C4.5's ``-c``,
        default 0.25).  Smaller values prune more aggressively.
    prune:
        Disable to keep the fully grown tree.
    max_depth:
        Optional hard depth cap (not part of classic C4.5; useful for
        the ablation experiments).

    The tree grows over presorted row-index subsets
    (:class:`_PresortedGrower`) and answers ``distribution`` queries
    with level-wise batch routing.
    """

    def __init__(
        self,
        min_leaf_weight: float = 2.0,
        confidence_factor: float = 0.25,
        prune: bool = True,
        max_depth: int | None = None,
    ) -> None:
        if min_leaf_weight <= 0:
            raise ValueError("min_leaf_weight must be positive")
        if not 0 < confidence_factor < 1:
            raise ValueError("confidence_factor must be in (0, 1)")
        if max_depth is not None and max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        self.min_leaf_weight = min_leaf_weight
        self.confidence_factor = confidence_factor
        self.prune = prune
        self.max_depth = max_depth
        self.root: TreeNode | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, dataset: Dataset) -> "C45DecisionTree":
        fit_trees([self], [dataset])
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def distribution(self, x: np.ndarray) -> np.ndarray:
        self._check_fitted()
        if self.root is None:
            raise RuntimeError("tree has no root")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if len(x) == 0:
            return np.empty((0, self._n_classes))
        out = batch_distribution(self.root, x, np.arange(len(x), dtype=np.int64))
        # A single-leaf tree returns a read-only broadcast view;
        # callers expect an owned array.
        if not out.flags.writeable:
            out = out.copy()
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Total nodes in the tree: the paper's ``Comp`` complexity measure."""
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        return self.root.node_count()

    @property
    def leaf_count(self) -> int:
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        return self.root.leaf_count()

    @property
    def depth(self) -> int:
        if self.root is None:
            raise RuntimeError("tree is not fitted")
        return self.root.depth()


def fit_trees(
    trees: Sequence[C45DecisionTree], datasets: Sequence[Dataset]
) -> None:
    """Fit ``trees[i]`` on ``datasets[i]`` for every ``i``, growing the
    trees together.

    Each tree comes out bit for bit as ``trees[i].fit(datasets[i])``
    alone would grow it: trees of one configuration and schema share a
    breadth-first grower (:class:`_PresortedGrower`), which searches
    the open nodes of all of them in one stacked pass per depth.
    :func:`repro.mining.crossval.cross_validate` fits a
    cross-validation's fold trees this way.
    """
    if len(trees) != len(datasets):
        raise ValueError("fit_trees needs one dataset per tree")
    if any(len(dataset) == 0 for dataset in datasets):
        raise ValueError("cannot fit a decision tree on an empty dataset")
    with obs.span("c45.fit") as fit_span:
        batches: dict[tuple, list[int]] = {}
        for i, (tree, dataset) in enumerate(zip(trees, datasets)):
            key = (
                tree.min_leaf_weight,
                tree.max_depth,
                dataset.n_classes,
                tuple(a.is_numeric for a in dataset.attributes),
            )
            batches.setdefault(key, []).append(i)
        roots: list[TreeNode] = [None] * len(trees)  # type: ignore[list-item]
        for (min_leaf_weight, max_depth, _, _), members in batches.items():
            grower = _PresortedGrower(
                min_leaf_weight, max_depth, [datasets[i] for i in members]
            )
            for i, root in zip(members, grower.grow()):
                roots[i] = root
            fit_span.count("split_passes", grower.split_passes)
        nodes = 0
        for tree, dataset, root in zip(trees, datasets, roots):
            tree._remember_schema(dataset)
            tree._attributes = dataset.attributes
            tree._n_classes = dataset.n_classes
            if tree.prune:
                root = prune_tree(root, tree.confidence_factor)
            tree.root = root
            nodes += root.node_count()
        fit_span.count("trees", len(trees))
        fit_span.count("instances", sum(len(dataset) for dataset in datasets))
        fit_span.count("nodes", nodes)


class _Node:
    """A node awaiting growth: tree ``tree``'s training rows ``rows``
    with weights ``w``, whose grown subtree goes to ``slot[index]``."""

    __slots__ = (
        "tree", "rows", "w", "lists", "slot", "index",
        "y_node", "class_weights", "total", "w_sum", "by_index",
    )

    def __init__(self, tree, rows, w, lists, slot, index) -> None:
        self.tree = tree
        self.rows = rows
        self.w = w
        # The node's per-attribute sort orders, or a zero-argument
        # callable producing them (lazy derivation).
        self.lists = lists
        self.slot = slot
        self.index = index


class _PresortedGrower:
    """Breadth-first C4.5 growth of several trees over presorted columns
    (SPRINT-style).

    Grows the *same trees, bit for bit*, as the seed per-node-sorting
    implementation kept as the test oracle in
    ``tests/mining/_c45_reference.py`` ("the reference" below) grows
    one at a time -- every floating-point reduction consumes the same
    operand sequence in the same order -- while eliminating that
    recursion's per-node costs:

    * numeric columns are sorted once per dataset
      (:meth:`repro.mining.dataset.Dataset.presort`) and handed down as
      filtered ``(positions, values)`` pairs; children of a split
      derive their orders by linear filtering and a stable two-way
      merge, never by re-sorting;
    * node membership travels as row-index subsets instead of copied
      matrices, and missing-value routing appends indices carrying
      fractional weights instead of duplicating rows with ``np.vstack``;
    * sort-order derivation for a child is *lazy*, so children that
      immediately bottom out as leaves never pay for it;
    * the trees grow level by level, and the numeric split search of
      every open node of a level, in every tree, runs as one stacked
      one-hot/cumsum/entropy pass (:meth:`_numeric_splits`) over
      preallocated scratch buffers -- the arithmetic per element is
      unchanged (each row or column of a stacked operation belongs to
      one node and one attribute and is computed independently), only
      the per-call overhead goes.  C4.5 draws no random numbers, so
      the growth order cannot change a tree.

    The datasets share one schema; the trees share ``min_leaf_weight``
    and ``max_depth``.
    """

    def __init__(
        self, min_leaf_weight: float, max_depth: int | None, datasets
    ) -> None:
        self._min_leaf_weight = min_leaf_weight
        self._max_depth = max_depth
        self._datasets = datasets
        self._n_classes = datasets[0].n_classes
        # Column block t of a stacked pass holds the t-th candidate
        # (node, numeric attribute) pair: columns t*C .. t*C+C-1.
        self._numeric_js = [
            j for j, a in enumerate(datasets[0].attributes) if a.is_numeric
        ]
        n = max(len(dataset) for dataset in datasets)
        c = self._n_classes
        self._arange = np.arange(max(n, c, len(self._numeric_js)))
        # Column t marks the known rows of a node's t-th candidate
        # attribute (one scatter per node covers all attributes).
        self._known = np.empty((n, max(len(self._numeric_js), 1)), dtype=bool)
        # One-hot/cumsum scratch, grown on first use to the largest pass.
        self._one_hot = np.empty(0)
        self._cumulative = np.empty(0)
        # Boundary-evaluation scratch, sized on first use to twice the
        # largest stacked known count: row i of the left block and row
        # F + i of the right block pair up.
        self._stack_rows = 0
        #: Stacked numeric split-search passes run so far.
        self.split_passes = 0

    def _ensure_stack(self, rows_needed: int) -> None:
        if self._stack_rows >= rows_needed:
            return
        r = max(rows_needed, 2)
        c = self._n_classes
        self._lr = np.empty((r, c))
        self._stacked = np.empty((r, c))
        self._h = np.empty(r)
        # Entropy work areas (see _entropy_rows_fused).
        self._tot = np.empty((r, 1))
        self._p = np.empty((r, c))
        self._logs = np.empty((r, c))
        self._stack_rows = r

    def _aranged(self, n: int) -> np.ndarray:
        if self._arange.size < n:
            self._arange = np.arange(2 * n)
        return self._arange

    # -- growth ---------------------------------------------------------
    def grow(self) -> list[TreeNode]:
        """The unpruned tree of every dataset, in dataset order."""
        roots: list[TreeNode] = [None] * len(self._datasets)  # type: ignore[list-item]
        level = [
            _Node(
                t,
                np.arange(len(dataset), dtype=np.int64),
                dataset.weights,
                dataset.presort(),
                roots,
                t,
            )
            for t, dataset in enumerate(self._datasets)
        ]
        depth = 0
        while level:
            level = self._grow_level(level, depth)
            depth += 1
        return roots

    def _grow_level(self, level: list[_Node], depth: int) -> list[_Node]:
        """Settle every node of one depth -- as a leaf or a split -- and
        return the next depth's nodes."""
        c = self._n_classes
        max_depth = self._max_depth
        searched: list[_Node] = []
        for node in level:
            y_node = self._datasets[node.tree].y[node.rows]
            class_weights = np.bincount(y_node, weights=node.w, minlength=c)
            total = class_weights.sum()
            if (
                total < 2 * self._min_leaf_weight
                or np.count_nonzero(class_weights) <= 1
                or (max_depth is not None and depth >= max_depth)
            ):
                node.slot[node.index] = LeafNode(class_weights)
                continue
            if callable(node.lists):
                node.lists = node.lists()
            node.y_node = y_node
            node.class_weights = class_weights
            node.total = total
            # For columns with no missing value at this node the
            # reference's known-weight sum w[known].sum() reduces a
            # verbatim copy of w, so one shared w.sum() serves every
            # such column.
            node.w_sum = node.w.sum()
            node.by_index = {}
            searched.append(node)
        if self._numeric_js and searched:
            self._numeric_splits(searched)
        next_level: list[_Node] = []
        for node in searched:
            split = self._best_split(node)
            if split is None:
                node.slot[node.index] = LeafNode(node.class_weights)
            else:
                self._branch(node, split, next_level)
        return next_level

    def _branch(self, node: _Node, split: _Split, next_level: list[_Node]) -> None:
        """Partition ``node`` by ``split``; its children join ``next_level``."""
        x = self._datasets[node.tree].x
        attributes = self._datasets[node.tree].attributes
        rows, w, lists = node.rows, node.w, node.lists
        j = split.attribute_index
        attribute = attributes[j]
        m = rows.size
        if attribute.is_numeric:
            assert split.threshold is not None
            positions, values = lists[j]
            cut = int(np.searchsorted(values, split.threshold, side="right"))
            mask_low = np.zeros(m, dtype=bool)
            mask_low[positions[:cut]] = True
            mask_high = np.zeros(m, dtype=bool)
            mask_high[positions[cut:]] = True
            branch_masks = [mask_low, mask_high]
            known = mask_low | mask_high
        else:
            column = x[rows, j]
            known = ~np.isnan(column)
            branch_masks = [
                known & (column == v) for v in range(len(attribute.values))
            ]

        branch_weights = np.array([w[mask].sum() for mask in branch_masks])
        known_total = branch_weights.sum()
        if known_total <= 0:
            node.slot[node.index] = LeafNode(node.class_weights)
            return
        fractions = branch_weights / known_total

        children: list[TreeNode] = [None] * len(branch_masks)  # type: ignore[list-item]
        missing = ~known
        has_missing = bool(missing.any())
        for b, (mask, fraction) in enumerate(zip(branch_masks, fractions)):
            route_missing = has_missing and fraction > 0
            if route_missing:
                child_rows = np.concatenate([rows[mask], rows[missing]])
                child_w = np.concatenate([w[mask], w[missing] * fraction])
            else:
                child_rows = rows[mask]
                child_w = w[mask]
            if child_w.sum() <= 0:
                children[b] = LeafNode(node.class_weights.copy())
                continue
            # Both derivations produce the identical canonical sort
            # orders (see _resorted_lists); filtering scans the
            # parent's lists at O(parent size) per attribute, so a
            # child much smaller than its parent re-sorts instead.
            if child_rows.size <= 64 or child_rows.size * 8 <= m:
                child_lists = functools.partial(
                    _resorted_lists, x, child_rows, self._numeric_js
                )
            else:
                child_lists = functools.partial(
                    _filter_lists, lists, mask, missing if route_missing else None
                )
            next_level.append(
                _Node(node.tree, child_rows, child_w, child_lists, children, b)
            )

        node.slot[node.index] = DecisionNode(
            class_weights=node.class_weights,
            attribute=attribute,
            attribute_index=j,
            threshold=split.threshold,
            children=children,
            branch_weights=branch_weights,
        )

    # -- split selection ------------------------------------------------
    def _best_split(self, node: _Node) -> _Split | None:
        by_index = node.by_index
        for j, attribute in enumerate(self._datasets[node.tree].attributes):
            if not attribute.is_numeric:
                candidate = self._nominal_split(node, j, attribute)
                if candidate is not None:
                    by_index[j] = candidate
        # The reference accumulates candidates in attribute order, and
        # both the average-gain sum and the max's first-wins tie-break
        # depend on that order; rebuild it.
        candidates = [
            by_index[j]
            for j in sorted(by_index)
            if by_index[j].gain > _EPSILON
        ]
        if not candidates:
            return None
        average_gain = sum(c.gain for c in candidates) / len(candidates)
        admissible = [c for c in candidates if c.gain + _EPSILON >= average_gain]
        return max(admissible, key=lambda c: (c.gain_ratio, c.gain))

    def _numeric_splits(self, nodes: list[_Node]) -> None:
        """Evaluate every numeric attribute of every node in ``nodes``
        into its ``by_index``, in as few stacked passes as the padding
        and scratch bounds allow, reproducing the reference evaluation
        bit for bit."""
        c = self._n_classes
        min2 = 2 * self._min_leaf_weight
        # Per node, the candidate slots: numeric attributes with at
        # least one known row whose known weight passes the reference's
        # admission gate, as (node, j, positions, values, kw).
        blocks = []
        for node in nodes:
            lists, w, m = node.lists, node.w, node.rows.size
            cand = [(j, *lists[j]) for j in self._numeric_js if lists[j][0].size]
            if not cand:
                continue
            n_cand = len(cand)
            sizes = [positions.size for _, positions, _ in cand]
            positions_cat = (
                cand[0][1]
                if n_cand == 1
                else np.concatenate([p for _, p, _ in cand])
            )
            # Known-row weights, batched: one boolean scatter marks
            # every attribute's known rows at once, then each attribute
            # that has missing values sums its own rows in node order --
            # exactly the reference's per-attribute
            # w[~isnan(column)].sum().
            kws = [node.w_sum] * n_cand
            need = [t for t, nk in enumerate(sizes) if nk != m]
            if need:
                km = self._known[:m, :n_cand]
                km[:] = False
                km[positions_cat, np.repeat(self._arange[:n_cand], sizes)] = True
                for t in need:
                    kws[t] = w[km[:, t]].sum()
            if any(kw < min2 for kw in kws):
                kept = [t for t in range(n_cand) if kws[t] >= min2]
                if not kept:
                    continue
                cand = [cand[t] for t in kept]
                kws = [kws[t] for t in kept]
                sizes = [sizes[t] for t in kept]
                positions_cat = np.concatenate([p for _, p, _ in cand])
            slots = [
                (node, j, positions, values, kw)
                for (j, positions, values), kw in zip(cand, kws)
            ]
            blocks.append(
                (max(sizes), slots, node.y_node[positions_cat], w[positions_cat])
            )
        # Pack the nodes, largest first, into passes: a node joins the
        # open pass unless its zero padding (the pass is as tall as its
        # largest node) or the pass's scratch would grow too large.
        blocks.sort(key=lambda block: -block[0])
        group: list = []
        rows = cols = 0
        for block in blocks:
            block_cols = len(block[1]) * c
            if group and (
                (rows - block[0]) * block_cols > _PAD_CELLS
                or rows * (cols + block_cols) > _PASS_CELLS
            ):
                self._search_pass(group, rows)
                group = []
            if not group:
                rows, cols = block[0], 0
            group.append(block)
            cols += block_cols
        if group:
            self._search_pass(group, rows)

    def _search_pass(self, group: list, max_known: int) -> None:
        """One stacked split search over the candidate slots of
        ``group``'s nodes.

        Candidate cuts are laid side by side: slot ``t`` owns columns
        ``t*C .. t*C+C-1`` of one (rows, slots*C) one-hot matrix, so a
        single column-wise cumsum produces every slot's running class
        counts at once (cumsum is sequential per column, and trailing
        zero rows of shorter columns are never read).  Boundary
        detection, feasibility, and the entropy/gain chain then run
        once over the concatenated boundary rows of all slots -- every
        row of those reductions belongs to exactly one slot and is
        reduced independently, so each sees the operand sequence the
        reference gave it -- and only the per-slot split-information
        and threshold tails stay scalar.
        """
        self.split_passes += 1
        c = self._n_classes
        slots = [slot for _, block_slots, _, _ in group for slot in block_slots]
        n_slots = len(slots)
        dc = n_slots * c
        sizes = [positions.size for _, _, positions, _, _ in slots]
        sz = np.array(sizes)
        stack = int(sz.sum())
        arange = self._aranged(max(stack, n_slots, c))
        self._ensure_stack(2 * stack)

        values = np.concatenate([v for _, _, _, v, _ in slots])
        col_starts = arange[:n_slots] * c
        ends = np.cumsum(sz)
        offs0 = ends - sz
        # One scatter builds every slot's one-hot block: row i of block
        # t is the i-th sorted known row of that slot's attribute.
        row_idx = arange[:stack] - np.repeat(offs0, sz)
        col_idx = np.concatenate([y for _, _, y, _ in group]) + np.repeat(
            col_starts, sz
        )
        cells = max_known * dc
        if self._one_hot.size < cells:
            self._one_hot = np.empty(cells)
            self._cumulative = np.empty(cells)
        one_hot = self._one_hot[:cells].reshape(max_known, dc)
        one_hot[:] = 0.0
        one_hot[row_idx, col_idx] = np.concatenate([w for _, _, _, w in group])
        left_counts = one_hot.cumsum(
            axis=0, out=self._cumulative[:cells].reshape(max_known, dc)
        )
        flat = left_counts.ravel()  # contiguous view of the buffer slice

        # Per-slot totals live in the last valid row of each block.
        # Parent entropies come from one fused row chain where every
        # row reduction is sequential from 0.0 (C < 8) and the total
        # clears the reference's positivity test by a wide margin; the
        # degenerate slots fall back to the scalar replica of _entropy.
        kws = [kw for _, _, _, _, kw in slots]
        arange_c = arange[:c]
        tot = flat[((sz - 1) * dc + col_starts)[:, None] + arange_c]
        pe = np.empty(n_slots)
        if c < 8:
            self._entropy_rows_fused(tot, pe)
        if c >= 8 or min(kws) < 1e-300:
            for t in range(n_slots):
                if c >= 8 or kws[t] < 1e-300:
                    pe[t] = _entropy_fast(tot[t])

        # values[1:] > values[:-1] is IEEE-equivalent to the reference's
        # diff(values) > 0 (x - y > 0 iff x > y under gradual underflow,
        # and both give False whenever the difference is NaN).  At the
        # joints between slot segments the comparison crosses slots;
        # mask those positions out.
        cmp = values[1:] > values[:-1]
        if n_slots > 1:
            cmp[ends[:-1] - 1] = False
        bnd = np.flatnonzero(cmp)
        if bnd.size == 0:
            return
        big = int(bnd.size)

        slot_of = np.searchsorted(ends, bnd, side="right")
        local = bnd - offs0[slot_of]
        col_base = col_starts[slot_of]
        lr = self._lr[: 2 * big]
        np.take(flat, (local * dc + col_base)[:, None] + arange_c, out=lr[:big])
        np.subtract(tot[slot_of], lr[:big], out=lr[big:])
        branch_w = np.add.reduce(lr, axis=1)
        ge = branch_w >= self._min_leaf_weight
        feasible = np.logical_and(ge[:big], ge[big:], out=ge[:big])
        if feasible.all():
            # Every cut admissible (the common case away from the
            # leaves): the compaction below would be an identity copy.
            fidx = None
            f = big
            counts = lr
            weights_f = branch_w
            slot_f = slot_of
        else:
            fidx = np.flatnonzero(feasible)
            f = fidx.size
            if f == 0:
                return
            stacked_idx = np.concatenate([fidx, fidx + big])
            counts = np.take(lr, stacked_idx, axis=0, out=self._stacked[: 2 * f])
            weights_f = np.take(branch_w, stacked_idx)
            slot_f = slot_of[fidx]

        # H(left) rows at h[:f], H(right) rows at h[f:], then
        # (lw * Hl + rw * Hr) / kw and the gain transform, all with the
        # reference's per-element arithmetic (the per-slot scalars kw,
        # H(parent), kw/total arrive as per-row vectors; multiplying or
        # dividing by a broadcast scalar and by a vector holding that
        # scalar are the same element operation).
        totals = [node.total for node, _, _, _, _ in slots]
        kw_arr = np.array(kws)
        h = self._entropy_rows_fused(counts, self._h[: 2 * f])
        np.multiply(weights_f, h, out=h)
        info = np.add(h[:f], h[f:], out=h[:f])
        np.divide(info, kw_arr[slot_f], out=info)
        np.subtract(pe[slot_f], info, out=info)
        gains = np.multiply(info, (kw_arr / np.array(totals))[slot_f], out=info)

        # First-max argmax within each slot's feasible segment, exactly
        # the reference's per-attribute np.argmax: the segment's max
        # (max is exact in any order), then its first occurrence -- or
        # the first NaN, which np.argmax returns when there is one.
        seg_counts = np.bincount(slot_f, minlength=n_slots)
        present = np.flatnonzero(seg_counts)
        seg_max = np.maximum.reduceat(
            gains, (np.cumsum(seg_counts) - seg_counts)[present]
        )
        hit = gains == np.repeat(seg_max, seg_counts[present])
        if np.isnan(seg_max).any():
            hit |= np.isnan(gains)
        hit_rows = np.flatnonzero(hit)
        best = hit_rows[np.searchsorted(slot_f[hit_rows], present)]
        best_gains = gains[best]
        keep = ~(best_gains <= _EPSILON)
        best = best[keep]
        g = bnd[best] if fidx is None else bnd[fidx[best]]
        for t, gain, lo, hi, lw, rw in zip(
            present[keep].tolist(),
            best_gains[keep].tolist(),
            values[g].tolist(),
            values[g + 1].tolist(),
            weights_f[best].tolist(),
            weights_f[f + best].tolist(),
        ):
            node, j, _, _, kw = slots[t]
            split_info = _split_info_scalar((lw, rw), totals[t] - kw, totals[t])
            if split_info <= _EPSILON:
                continue
            node.by_index[j] = _Split(
                j, gain, gain / split_info, _threshold_between(lo, hi)
            )

    def _nominal_split(self, node: _Node, j: int, attribute) -> _Split | None:
        """The reference's ``_nominal_split``, op for op, with the
        grower's scratch buffers and scalar tails."""
        n_values = len(attribute.values)
        self._ensure_stack(n_values)
        column = self._datasets[node.tree].x[node.rows, j]
        known = ~np.isnan(column)
        n_known = int(np.count_nonzero(known))
        if n_known == 0:
            return None
        y_node, w, total = node.y_node, node.w, node.total
        if n_known == node.rows.size:
            # All values known: the reference's all-true gathers return
            # verbatim copies, and w[known].sum() is the shared w.sum().
            values = column.astype(np.int64)
            labels = y_node
            weights = w
            known_weight = node.w_sum
        else:
            values = column[known].astype(np.int64)
            labels = y_node[known]
            weights = w[known]
            known_weight = weights.sum()

        counts = np.zeros((n_values, self._n_classes))
        np.add.at(counts, (values, labels), weights)
        branch_weight = np.add.reduce(counts, axis=1)
        if np.count_nonzero(branch_weight >= self._min_leaf_weight) < 2:
            return None

        parent_entropy = _entropy_fast(counts.sum(axis=0))
        h = self._entropy_rows_fused(counts, self._h[:n_values])
        np.multiply(branch_weight, h, out=h)
        info = float(h.sum() / known_weight)
        gain = (known_weight / total) * (parent_entropy - info)
        if gain <= _EPSILON:
            return None
        split_info = _split_info_scalar(
            branch_weight.tolist(), total - known_weight, total
        )
        if split_info <= _EPSILON:
            return None
        return _Split(j, float(gain), float(gain / split_info), None)

    def _entropy_rows_fused(self, counts, out):
        """The reference's ``_entropy_rows`` into preallocated buffers,
        op for op."""
        b = counts.shape[0]
        totals = np.add.reduce(counts, axis=1, keepdims=True, out=self._tot[:b])
        np.maximum(totals, 1e-300, out=totals)
        p = np.divide(counts, totals, out=self._p[:b])
        logs = self._logs[:b]
        # The reference zero-fills and computes a masked log2 over the
        # positive entries; the where-variant defeats SIMD.  Clamping to
        # the smallest positive double instead leaves every p > 0
        # untouched (p > 0 implies p >= 5e-324; Dataset validates
        # weights non-negative, so p < 0 cannot occur) and maps p == 0
        # cells to
        # a finite log, whose product 0 * log is -0.0 where the
        # reference holds +0.0.  Row sums absorb the zero sign
        # (x + -0.0 == x + +0.0 bit for bit for x != -0.0, and sums
        # start from +0.0), so entropies match the reference exactly
        # except possibly in the sign of zero on all-zero-count rows --
        # and a zero's sign is invisible to every downstream use
        # (comparisons, multiplication by non-negative weights, and
        # sums all treat +-0.0 alike; no entropy is stored in a tree).
        np.maximum(p, _TINY, out=logs)
        np.log2(logs, out=logs)
        np.multiply(p, logs, out=p)
        np.add.reduce(p, axis=1, out=out)
        np.negative(out, out=out)
        return out


def _entropy_fast(counts: np.ndarray) -> float:
    """`_entropy`, bit for bit, for short count vectors.

    numpy reduces float64 arrays shorter than its pairwise-sum unroll
    width (8) strictly sequentially from 0.0, so scalar accumulation
    reproduces the reference's sums exactly.  The log2 itself still
    goes through ``np.log2`` on an identically-compacted array because
    ``math.log2`` differs from it by one ULP on ~0.1% of inputs.
    """
    cs = counts.tolist()
    if len(cs) >= 8:
        return _entropy(counts)
    total = 0.0
    for c in cs:
        total += c
    if total <= 0:
        return 0.0
    # The reference divides first and filters underflow-to-zero
    # quotients after; replicate both passes.
    ps = [c / total for c in cs if c > 0]
    ps = [p for p in ps if p > 0]
    logs = np.log2(ps)
    s = 0.0
    for p, log in zip(ps, logs.tolist()):
        s += p * log
    return float(-s)


def _resorted_lists(
    x: np.ndarray, rows: np.ndarray, numeric_js: list[int]
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Build a node's sort orders by sorting its columns directly.

    Produces exactly the object :func:`_filter_lists` derives -- for
    each numeric column, the node-local positions of the known values
    ordered by ``(value, node position)`` -- because that ordering is
    unique and a stable argsort of the child column realises it (NaNs
    sort last and are trimmed).  Used for small children of large
    nodes, where filtering the parent's lists costs O(parent size) per
    attribute but re-sorting costs only O(child size log child size).
    One row-wise argsort sorts every column at once.
    """
    columns = x[rows][:, numeric_js].T
    orders = np.argsort(columns, axis=1, kind="stable")
    n_known = (rows.size - np.count_nonzero(np.isnan(columns), axis=1)).tolist()
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for t, j in enumerate(numeric_js):
        positions = orders[t, : n_known[t]]
        out[j] = (positions, columns[t, positions])
    return out


def _filter_lists(
    lists: dict[int, tuple[np.ndarray, np.ndarray]],
    mask: np.ndarray,
    missing: np.ndarray | None,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Restrict per-attribute sort orders to one child's rows.

    ``mask`` selects the rows routed down the branch by the split test;
    ``missing`` (when the branch also receives fractionally weighted
    missing-value rows) selects the rows appended *after* them.  Child
    node positions renumber mask rows first, missing rows second --
    matching the ``vstack([x[mask], x[missing]])`` layout of the
    reference -- so a value tie between a mask row and a missing row
    must order the mask row first, which is what the stable two-way
    merge guarantees (all mask positions are smaller).
    """
    child_map = np.cumsum(mask) - 1
    if missing is not None:
        miss_map = np.cumsum(missing) - 1 + int(np.count_nonzero(mask))
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for j, (positions, values) in lists.items():
        in_mask = mask[positions]
        pos_a = child_map[positions[in_mask]]
        val_a = values[in_mask]
        if missing is None:
            out[j] = (pos_a, val_a)
            continue
        in_miss = missing[positions]
        parent_b = positions[in_miss]
        if parent_b.size == 0:
            out[j] = (pos_a, val_a)
            continue
        out[j] = _merge_sorted(pos_a, val_a, miss_map[parent_b], values[in_miss])
    return out


def _split_info_scalar(
    branch_weights: tuple, missing_weight: float, total: float
) -> float:
    """The reference's ``_split_info`` without the array round-trip
    (same accumulation order: positive branch weights first, then the
    missing weight)."""
    info = 0.0
    for part in branch_weights:
        if part > 0:
            fraction = part / total
            info -= fraction * math.log2(fraction)
    if missing_weight > 0:
        fraction = missing_weight / total
        info -= fraction * math.log2(fraction)
    return info



def _entropy(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    # A denormal count can underflow to exactly 0 in the division,
    # where 0 * log2(0) would poison the sum with NaN.
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())



def _threshold_between(lo: float, hi: float) -> float:
    """A threshold t with lo <= t < hi, preferring the readable midpoint.

    The midpoint of two adjacent float values can round up to ``hi``
    (or overflow) when the values span the huge magnitudes bit flips
    produce; a threshold equal to ``hi`` would send both sides down the
    same branch and stall the recursion, so fall back to ``lo`` -- the
    "largest observed value below the cut", which is what C4.5 itself
    uses -- whenever the midpoint fails to separate strictly.
    """
    lo, hi = float(lo), float(hi)  # plain floats: overflow -> inf, no warning
    mid = (lo + hi) / 2.0
    if not math.isfinite(mid):
        mid = lo + (hi - lo) / 2.0
    if math.isfinite(mid) and lo <= mid < hi:
        return mid
    return lo
