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

import math
from collections.abc import Sequence

import numpy as np

from repro import observability as obs
from repro.mining.base import Classifier
from repro.mining.dataset import Dataset
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
# Passes over unit weights stack their slots unpadded, so only the
# second bound applies to them.
_PAD_CELLS = 1 << 12
_PASS_CELLS = 1 << 14


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
    breadth-first grower (:class:`_PresortedGrower`), which settles
    each depth of all of them with level-wide arrays and searches
    their open nodes in stacked passes.
    :func:`repro.mining.crossval.cross_validate` fits a
    cross-validation's fold trees this way, and
    :func:`repro.core.refine.refine` a whole grid's.
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
                dataset.attributes,
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
            fit_span.count("levels", grower.levels)
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


class _Level:
    """The open nodes of one depth, laid out node after node.

    Node ``i`` owns the level's elements ``start[i]:start[i + 1]``
    (``sizes[i]`` of them): its training rows ``rows`` (indices into the
    grower's row space) with weights ``w``, in the order the reference
    holds the node's rows; ``unit`` says every weight is exactly 1.
    ``xt[t]`` is the ``t``-th numeric column at those elements, and row
    ``t`` of ``order`` lists each node's elements by it: the known
    values ascending, ties by element, then the missing ones.
    ``known[i, t]`` counts node ``i``'s known values of column ``t``,
    ``cw``/``total`` are the nodes' class weights and their sums, and
    ``places[i]`` is the ``(list, index)`` the node's subtree goes to.
    """

    __slots__ = (
        "start", "sizes", "rows", "w", "unit", "xt", "order", "known",
        "cw", "total", "places",
    )

    def __init__(
        self, start, rows, w, unit, xt, order, known, cw, total, places
    ) -> None:
        self.start = start
        self.sizes = start[1:] - start[:-1]
        self.rows = rows
        self.w = w
        self.unit = unit
        self.xt = xt
        self.order = order
        self.known = known
        self.cw = cw
        self.total = total
        self.places = places


class _PresortedGrower:
    """Breadth-first C4.5 growth of several trees over presorted columns
    (SPRINT's level-wise attribute lists).

    Grows the *same trees, bit for bit*, as the seed per-node-sorting
    implementation kept as the test oracle in
    ``tests/mining/_c45_reference.py`` ("the reference" below) grows
    one at a time -- every floating-point reduction that reaches a tree
    consumes the same operands in the same order -- while settling
    each depth of every tree with level-wide array operations instead
    of per-node ones:

    * numeric columns are sorted once per dataset
      (:meth:`repro.mining.dataset.Dataset.presort`); a level keeps
      every node's per-attribute sort orders in one ``(attributes,
      elements)`` array (:class:`_Level`), and the next level's orders
      are derived from it by one scatter, never by re-sorting;
    * node membership travels as row indices, and missing-value routing
      appends indices carrying fractional weights instead of
      duplicating rows;
    * class weights and leaf tests are one weighted ``np.bincount`` over
      (node, class) -- ``bincount`` adds each bin's weights in input
      order, exactly as the reference's per-node ``bincount`` does --
      and the branch partition of every split node is one scatter;
    * the numeric split search of every open node runs as stacked
      one-hot/cumsum/entropy passes (:meth:`_search_pass`) sliced from
      the level's arrays -- each row or column of a stacked operation
      belongs to one node and one attribute and is computed
      independently, so the arithmetic per element is unchanged.

    Sums whose association NumPy's pairwise summation fixes -- a node's
    weight, a branch's weight, a column's known weight -- stay one
    ``np.sum`` per node over the same elements in the same order,
    except on levels whose weights are all exactly 1: there every such
    sum is an integer count, which any order computes exactly.  C4.5
    draws no random numbers, so the growth order cannot change a tree.

    The datasets share one schema; the trees share ``min_leaf_weight``
    and ``max_depth``.
    """

    def __init__(
        self, min_leaf_weight: float, max_depth: int | None, datasets
    ) -> None:
        self._min_leaf_weight = min_leaf_weight
        self._max_depth = max_depth
        self._datasets = datasets
        self._attributes = datasets[0].attributes
        self._n_classes = datasets[0].n_classes
        self._numeric_js = [
            j for j, a in enumerate(self._attributes) if a.is_numeric
        ]
        self._nominal_js = [
            j for j, a in enumerate(self._attributes) if not a.is_numeric
        ]
        # One row space for all the trees, dataset after dataset, with
        # the columns attribute-major: numeric ones in _xt, nominal ones
        # in _nominal.
        n_rows = sum(len(dataset) for dataset in datasets)
        self._y = np.concatenate([dataset.y for dataset in datasets])
        self._xt = np.empty((len(self._numeric_js), n_rows))
        self._nominal = np.empty((len(self._nominal_js), n_rows))
        offset = 0
        for dataset in datasets:
            end = offset + len(dataset)
            self._xt[:, offset:end] = dataset.x[:, self._numeric_js].T
            self._nominal[:, offset:end] = dataset.x[:, self._nominal_js].T
            offset = end
        #: No numeric value is missing: every node knows every column.
        self._complete = not np.isnan(self._xt).any()
        self._arange = np.arange(max(n_rows, self._n_classes, 2))
        # One-hot/cumsum scratch, grown on first use to the largest pass.
        self._one_hot = np.empty(0)
        self._cumulative = np.empty(0)
        # Boundary-evaluation scratch, sized on first use to twice the
        # largest stacked known count: row i of the left block and row
        # F + i of the right block pair up.
        self._stack_rows = 0
        #: Stacked numeric split-search passes run so far.
        self.split_passes = 0
        #: Depths settled so far.
        self.levels = 0

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
        return self._arange[:n]

    def _ranges(self, starts: np.ndarray, lengths: np.ndarray):
        """The concatenated ranges ``starts[i] .. starts[i] + lengths[i]``
        and each entry's offset within its range."""
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if ends.size else 0
        offset = self._aranged(total) - np.repeat(ends - lengths, lengths)
        return offset + np.repeat(starts, lengths), offset

    # -- growth ---------------------------------------------------------
    def grow(self) -> list[TreeNode]:
        """The unpruned tree of every dataset, in dataset order."""
        datasets = self._datasets
        roots: list[TreeNode] = [None] * len(datasets)  # type: ignore[list-item]
        start = np.zeros(len(datasets) + 1, dtype=np.int64)
        np.cumsum([len(dataset) for dataset in datasets], out=start[1:])
        w = np.concatenate([dataset.weights for dataset in datasets])
        unit = bool((w == 1.0).all())
        places = [(roots, i) for i in range(len(datasets))]
        open_, cw, total = self._settle(
            self._aranged(int(start[-1])), w, start, places, 0
        )
        level = self._root_level(open_, start, w, unit, cw, total, places)
        # From here on each level holds its own columns; the root's go
        # with it.
        self._xt = None
        depth = 0
        while level is not None:
            level = self._grow_level(level, depth)
            depth += 1
        return roots

    def _settle(self, rows, w, start, places, depth, parents=None):
        """Class weights of a depth's candidate nodes: place the ones
        that stop as leaves and return the indices of the rest, with
        every candidate's class weights and their sums.

        ``parents`` (children only) is ``(class weights, index)`` of
        each candidate's parent: a child with no positive weight is a
        leaf of its parent's class weights, as in the reference.
        """
        c = self._n_classes
        n = len(places)
        sizes = start[1:] - start[:-1]
        node_of = np.repeat(self._aranged(n), sizes)
        cw = np.bincount(
            node_of * c + self._y[rows], weights=w, minlength=n * c
        ).reshape(n, c)
        total = cw.sum(axis=1)
        leaf = (total < 2 * self._min_leaf_weight) | (
            np.count_nonzero(cw, axis=1) <= 1
        )
        if self._max_depth is not None and depth >= self._max_depth:
            leaf[:] = True
        closed = leaf
        if parents is not None:
            empty = np.bincount(node_of, weights=w > 0, minlength=n) == 0
            if empty.any():
                parent_cw, parent_of = parents
                for i in np.flatnonzero(empty).tolist():
                    holder, index = places[i]
                    holder[index] = LeafNode(parent_cw[parent_of[i]].copy())
                leaf = leaf & ~empty
                closed = leaf | empty
        for i in np.flatnonzero(leaf).tolist():
            holder, index = places[i]
            holder[index] = LeafNode(cw[i])
        return np.flatnonzero(~closed), cw, total

    def _root_level(self, open_, start, w, unit, cw, total, places):
        """The open roots as a level, their orders from the presorts."""
        if open_.size == 0:
            return None
        numeric_js = self._numeric_js
        sizes = (start[1:] - start[:-1])[open_]
        new_start = np.zeros(open_.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=new_start[1:])
        if open_.size == start.size - 1:
            rows, xt = self._aranged(int(new_start[-1])), self._xt
        else:
            rows, _ = self._ranges(start[open_], sizes)
            xt = self._xt[:, rows]
        order = np.empty((len(numeric_js), rows.size), dtype=np.int64)
        presorts = [self._datasets[r].presort() for r in open_.tolist()]
        if self._complete:
            # Every value known: each row is the roots' presorts end to end.
            offsets = np.repeat(new_start[:-1], sizes)
            for t, j in enumerate(numeric_js):
                positions = np.concatenate([presort[j][0] for presort in presorts])
                np.add(positions, offsets, out=order[t])
            known = np.repeat(sizes[:, None], len(numeric_js), axis=1)
        else:
            known = np.empty((open_.size, len(numeric_js)), dtype=np.int64)
            for i, (r, offset) in enumerate(zip(open_.tolist(), new_start.tolist())):
                dataset = self._datasets[r]
                for t, j in enumerate(numeric_js):
                    positions = presorts[i][j][0]
                    k = positions.size
                    row = order[t, offset : offset + len(dataset)]
                    np.add(positions, offset, out=row[:k])
                    if k < len(dataset):
                        missing = np.flatnonzero(np.isnan(dataset.x[:, j]))
                        np.add(missing, offset, out=row[k:])
                    known[i, t] = k
        return _Level(
            new_start,
            rows,
            w[rows],
            unit,
            xt,
            order,
            known,
            cw[open_],
            total[open_],
            [places[i] for i in open_.tolist()],
        )

    def _grow_level(self, level: _Level, depth: int) -> _Level | None:
        """Split or close every node of one depth and return the next
        depth's open nodes (None when there are none)."""
        self.levels += 1
        start, sizes, rows, w = level.start, level.sizes, level.rows, level.w
        n = sizes.size
        y = self._y[rows]
        if level.unit:
            w_sums = sizes.astype(np.float64)
        else:
            # The reference's w.sum() of each node, in node order.
            starts = start.tolist()
            w_sums = np.array([w[a:b].sum() for a, b in zip(starts, starts[1:])])
        candidates: list[dict] = [{} for _ in range(n)]
        n_numeric = len(self._numeric_js)
        if n_numeric:
            self._numeric_splits(level, y, w_sums, candidates)
        if self._nominal_js:
            starts = start.tolist()
            totals = level.total.tolist()
            sums = w_sums.tolist()
            for q, j in enumerate(self._nominal_js):
                column = self._nominal[q, rows]
                n_values = len(self._attributes[j].values)
                for i in range(n):
                    a, b = starts[i], starts[i + 1]
                    split = self._nominal_split(
                        column[a:b], y[a:b], w[a:b], totals[i], sums[i], n_values
                    )
                    if split is not None:
                        candidates[i][j] = split
        splits = []
        for i, node_candidates in enumerate(candidates):
            best = _best_split(node_candidates)
            if best is None:
                holder, index = level.places[i]
                holder[index] = LeafNode(level.cw[i])
            else:
                splits.append((i, *best))
        if not splits:
            return None
        return self._partition(level, splits, depth)

    # -- split selection ------------------------------------------------
    def _numeric_splits(self, level, y, w_sums, candidates) -> None:
        """Evaluate every numeric attribute of every node of ``level``
        into ``candidates``, in as few stacked passes as the padding and
        scratch bounds allow, reproducing the reference evaluation bit
        for bit."""
        c = self._n_classes
        known = level.known
        n_numeric = known.shape[1]
        # Known weight per (node, attribute): the node's weight where no
        # value is missing (the reference's w[known] is then a verbatim
        # copy of w), else the known rows' sum in node order.
        kw = np.repeat(w_sums[:, None], n_numeric, axis=1)
        if not self._complete:
            partial = (known > 0) & (known < level.sizes[:, None])
            if level.unit:
                kw[partial] = known[partial]
            else:
                starts = level.start.tolist()
                w, xt = level.w, level.xt
                for i, t in np.argwhere(partial).tolist():
                    a, b = starts[i], starts[i + 1]
                    kw[i, t] = w[a:b][~np.isnan(xt[t, a:b])].sum()
        # The reference's admission gate: a known row and enough weight.
        kept = (known > 0) & (kw >= 2 * self._min_leaf_weight)
        heights = np.where(kept, known, 0).max(axis=1)
        nodes = np.flatnonzero(heights)
        if nodes.size == 0:
            return
        search = (level, y, kw, kept, candidates)
        group: list[int] = []
        if level.unit:
            # Counts of unit weights are exact: the slots stack end to
            # end, unpadded, up to the scratch bound.
            cells = np.where(kept, known, 0).sum(axis=1) * c
            filled = 0
            for i, size in zip(nodes.tolist(), cells[nodes].tolist()):
                if group and filled + size > _PASS_CELLS:
                    self._search_pass(group, 0, *search)
                    group, filled = [], 0
                group.append(i)
                filled += size
            self._search_pass(group, 0, *search)
            return
        # Pack the nodes, largest first, into passes: a node joins the
        # open pass unless its zero padding (the pass is as tall as its
        # largest node) or the pass's scratch would grow too large.
        nodes = nodes[np.argsort(-heights[nodes], kind="stable")]
        widths = np.count_nonzero(kept, axis=1) * c
        rows = cols = 0
        for i, height, width in zip(
            nodes.tolist(), heights[nodes].tolist(), widths[nodes].tolist()
        ):
            if group and (
                (rows - height) * width > _PAD_CELLS
                or rows * (cols + width) > _PASS_CELLS
            ):
                self._search_pass(group, rows, *search)
                group = []
            if not group:
                rows, cols = height, 0
            group.append(i)
            cols += width
        if group:
            self._search_pass(group, rows, *search)

    def _search_pass(
        self, group, max_known, level, y, kw, kept, candidates
    ) -> None:
        """One stacked split search over the candidate slots -- (node,
        numeric attribute) pairs -- of ``group``'s nodes.

        Candidate cuts are laid side by side: slot ``s`` owns columns
        ``s*C .. s*C+C-1`` of one (``max_known``, slots*C) one-hot
        matrix, so a single column-wise cumsum produces every slot's
        running class counts at once (cumsum is sequential per column,
        and trailing zero rows of shorter columns are never read).  On a
        unit-weight level the slots instead stack end to end, and one
        row-wise cumsum of a (C, rows) class indicator gives running
        counts that are exact integers, so a slot's counts are the
        running counts less those before the slot, bit for bit the
        reference's cumsum.  Boundary
        detection, feasibility, and the entropy/gain chain then run
        once over the concatenated boundary rows of all slots -- every
        row of those reductions belongs to exactly one slot and is
        reduced independently, so each sees the operand sequence the
        reference gave it -- and only the per-slot split-information
        tail stays scalar.
        """
        self.split_passes += 1
        c = self._n_classes
        group_nodes = np.array(group)
        picked, ts = np.nonzero(kept[group_nodes])
        ns = group_nodes[picked]
        n_slots = ns.size
        dc = n_slots * c
        sz = level.known[ns, ts]
        stack = int(sz.sum())
        arange = self._aranged(max(2 * stack, c))
        self._ensure_stack(2 * stack)
        ends = np.cumsum(sz)
        offs0 = ends - sz
        # Slot s is the known prefix of node ns[s]'s segment of row
        # ts[s] of the level's sort orders.
        row_idx = arange[:stack] - np.repeat(offs0, sz)
        row_start = np.repeat(ts * level.order.shape[1], sz)
        elements = level.order.ravel()[
            row_idx + row_start + np.repeat(level.start[ns], sz)
        ]
        slot_values = level.xt.ravel()[elements + row_start]
        col_starts = arange[:n_slots] * c
        arange_c = arange[:c]
        if level.unit:
            # running[k, i]: class k's count among stack rows 0..i.
            running = np.cumsum(
                y[elements] == arange_c[:, None], axis=1, dtype=np.float64
            )
            before = np.zeros((c, n_slots))
            before[:, 1:] = running[:, offs0[1:] - 1]
            # Per-slot totals: the running counts at each slot's end.
            tot = (running[:, ends - 1] - before).T
        else:
            col_idx = y[elements] + np.repeat(col_starts, sz)
            cells = max_known * dc
            if self._one_hot.size < cells:
                self._one_hot = np.empty(cells)
                self._cumulative = np.empty(cells)
            one_hot = self._one_hot[:cells].reshape(max_known, dc)
            one_hot[:] = 0.0
            one_hot[row_idx, col_idx] = level.w[elements]
            left_counts = one_hot.cumsum(
                axis=0, out=self._cumulative[:cells].reshape(max_known, dc)
            )
            flat_counts = left_counts.ravel()  # contiguous view of the buffer slice
            # Per-slot totals live in the last valid row of each block.
            tot = flat_counts[((sz - 1) * dc + col_starts)[:, None] + arange_c]

        # values[1:] > values[:-1] is IEEE-equivalent to the reference's
        # diff(values) > 0 (x - y > 0 iff x > y under gradual underflow,
        # and both give False whenever the difference is NaN).  At the
        # joints between slot segments the comparison crosses slots;
        # mask those positions out.
        cmp = slot_values[1:] > slot_values[:-1]
        if n_slots > 1:
            cmp[ends[:-1] - 1] = False
        bnd = np.flatnonzero(cmp)
        if bnd.size == 0:
            return
        big = int(bnd.size)

        slot_of = np.searchsorted(ends, bnd, side="right")
        # Rows of lr: the left counts of every boundary, their right
        # counts, then each slot's totals, whose entropies ride along.
        lr = self._lr[: 2 * big + n_slots]
        if level.unit:
            np.subtract(running[:, bnd].T, before[:, slot_of].T, out=lr[:big])
        else:
            local = bnd - offs0[slot_of]
            flat = (local * dc + col_starts[slot_of])[:, None] + arange_c
            np.take(flat_counts, flat, out=lr[:big])
        np.subtract(tot[slot_of], lr[:big], out=lr[big : 2 * big])
        lr[2 * big :] = tot
        branch_w = np.add.reduce(lr[: 2 * big], axis=1)
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
            stacked_idx = np.concatenate(
                [fidx, fidx + big, arange[2 * big : 2 * big + n_slots]]
            )
            counts = np.take(
                lr, stacked_idx, axis=0, out=self._stacked[: 2 * f + n_slots]
            )
            weights_f = np.take(branch_w, stacked_idx[: 2 * f])
            slot_f = slot_of[fidx]

        # H(left) rows at h[:f], H(right) rows at h[f:], then
        # (lw * Hl + rw * Hr) / kw and the gain transform, all with the
        # reference's per-element arithmetic (the per-slot scalars kw,
        # H(parent), kw/total arrive as per-row vectors; multiplying or
        # dividing by a broadcast scalar and by a vector holding that
        # scalar are the same element operation).
        slot_totals = level.total[ns]
        kws = kw[ns, ts]
        h = self._entropy_rows_fused(counts, self._h[: 2 * f + n_slots])
        # Parent entropies come from the same fused row chain, where
        # every row reduction is sequential from 0.0 (C < 8) and the
        # total clears the reference's positivity test by a wide margin;
        # the degenerate slots fall back to the scalar replica of
        # _entropy.
        pe = h[2 * f :]
        if c >= 8 or kws.min() < 1e-300:
            for s in range(n_slots):
                if c >= 8 or kws[s] < 1e-300:
                    pe[s] = _entropy_fast(tot[s])
        h = h[: 2 * f]
        np.multiply(weights_f, h, out=h)
        info = np.add(h[:f], h[f:], out=h[:f])
        np.divide(info, kws[slot_f], out=info)
        np.subtract(pe[slot_f], info, out=info)
        gains = np.multiply(info, (kws / slot_totals)[slot_f], out=info)

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
        # NaN gains fail the reference's gain > epsilon gate too.
        keep = best_gains > _EPSILON
        best = best[keep]
        slots = present[keep]
        g = bnd[best] if fidx is None else bnd[fidx[best]]
        numeric_js = self._numeric_js
        for node, t, gain, cut, kw_s, total, lw, rw in zip(
            ns[slots].tolist(),
            ts[slots].tolist(),
            best_gains[keep].tolist(),
            (g - offs0[slots] + 1).tolist(),
            kws[slots].tolist(),
            slot_totals[slots].tolist(),
            weights_f[best].tolist(),
            weights_f[f + best].tolist(),
        ):
            split_info = _split_info_scalar((lw, rw), total - kw_s, total)
            if split_info > _EPSILON:
                candidates[node][numeric_js[t]] = (gain, gain / split_info, t, cut)

    def _nominal_split(self, column, y_node, w, total, w_sum, n_values):
        """The reference's ``_nominal_split``, op for op, with the
        grower's scratch buffers and scalar tails, as a ``(gain,
        gain_ratio, None, None)`` candidate or None."""
        self._ensure_stack(n_values)
        known = ~np.isnan(column)
        n_known = int(np.count_nonzero(known))
        if n_known == 0:
            return None
        if n_known == column.size:
            # All values known: the reference's all-true gathers return
            # verbatim copies, and w[known].sum() is the shared w.sum().
            values = column.astype(np.int64)
            labels = y_node
            weights = w
            known_weight = w_sum
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
        if not gain > _EPSILON:
            return None
        split_info = _split_info_scalar(
            branch_weight.tolist(), total - known_weight, total
        )
        if split_info <= _EPSILON:
            return None
        return (float(gain), float(gain / split_info), None, None)

    # -- partition ------------------------------------------------------
    def _partition(self, level, splits, depth):
        """Split the nodes of ``splits`` -- ``(node, j, t, cut)``: the
        attribute, and for a numeric one its row in ``order`` and the
        count of known values going low (None, None for a nominal one)
        -- place their decision nodes, close the children that stop and
        return the rest as the next level (None when there are none)."""
        start, sizes, rows, w = level.start, level.sizes, level.rows, level.w
        r_total = rows.size
        n_splits = len(splits)
        split_nodes = np.array([i for i, _, _, _ in splits])
        spans = sizes[split_nodes]
        # The split nodes' elements, node by node, and each one's branch
        # (-1: its split attribute's value is missing).
        if n_splits == sizes.size:
            elements = self._aranged(r_total)
            local = elements - np.repeat(start[:-1], sizes)
        else:
            elements, local = self._ranges(start[split_nodes], spans)
        branch_of = np.zeros(r_total, dtype=np.int64)
        numeric = [s for s, (_, _, t, _) in enumerate(splits) if t is not None]
        nominal = [s for s, (_, _, t, _) in enumerate(splits) if t is None]
        thresholds: list[float | None] = [None] * n_splits
        if numeric:
            # In the split column's order, the first ``cut`` known
            # values go low, the other known ones high.
            t_num = np.array([splits[s][2] for s in numeric])
            cut = np.array([splits[s][3] for s in numeric])
            if nominal:
                num = np.array(numeric)
                node_num, num_spans = split_nodes[num], spans[num]
                first = t_num * r_total + start[node_num]
                ranked, k = self._ranges(first, num_spans)
            else:
                node_num, num_spans, k = split_nodes, spans, local
                first = t_num * r_total + start[node_num]
                ranked = k + np.repeat(first, num_spans)
            branch = (k >= np.repeat(cut, num_spans)).astype(np.int64)
            if not self._complete:
                branch[k >= np.repeat(level.known[node_num, t_num], num_spans)] = -1
            branch_of[level.order.ravel()[ranked]] = branch
            # The reference's threshold between the last low value and
            # the first high one.
            order, xt = level.order, level.xt
            for s in numeric:
                i, _, t, cut = splits[s]
                low = start[i] + cut
                thresholds[s] = _threshold_between(
                    xt[t, order[t, low - 1]], xt[t, order[t, low]]
                )
        if nominal:
            nom = np.array(nominal)
            node_nom = split_nodes[nom]
            members, _ = self._ranges(start[node_nom], spans[nom])
            columns = np.repeat(
                [self._nominal_js.index(splits[s][1]) for s in nominal], spans[nom]
            )
            value = self._nominal[columns, rows[members]]
            branch_of[members] = np.where(np.isnan(value), -1.0, value).astype(np.int64)
        branch = branch_of[elements]
        split_of = np.repeat(self._aranged(n_splits), spans)

        # Each split's members in (branch, node order): one stable sort
        # by (split, branch), a radix sort on 16-bit keys.
        n_branches = np.array(
            [
                2 if t is not None else len(self._attributes[j].values)
                for _, j, t, _ in splits
            ]
        )
        b_max = int(n_branches.max())
        known = branch >= 0
        missing_any = not known.all()
        if missing_any:
            missing = elements[~known]
            m_counts = np.bincount(split_of[~known], minlength=n_splits)
            elements, branch, split_of = (
                elements[known], branch[known], split_of[known]
            )
        slot = split_of * b_max + branch
        if n_splits * b_max <= 1 << 16:
            src_a = elements[np.argsort(slot.astype(np.uint16), kind="stable")]
        else:
            src_a = elements[np.argsort(slot, kind="stable")]
        a_counts = np.bincount(slot, minlength=n_splits * b_max)
        a_offsets = (np.cumsum(a_counts) - a_counts).reshape(n_splits, b_max)
        a_counts = a_counts.reshape(n_splits, b_max)

        # The reference's branch weights: counts where every weight is
        # 1, else each branch's members summed in node order.
        if level.unit:
            branch_weights = a_counts.astype(np.float64)
            known_total = branch_weights.sum(axis=1)
        else:
            w_a = w[src_a]
            branch_weights = np.zeros((n_splits, b_max))
            known_total = np.empty(n_splits)
            for s, (n_b, offs, cnts) in enumerate(
                zip(n_branches.tolist(), a_offsets.tolist(), a_counts.tolist())
            ):
                row = branch_weights[s, :n_b]
                row[:] = [w_a[o : o + k].sum() for o, k in zip(offs[:n_b], cnts[:n_b])]
                known_total[s] = row.sum()
        valid = known_total > 0
        fractions = np.zeros((n_splits, b_max))
        np.divide(branch_weights, known_total[:, None], out=fractions, where=valid[:, None])

        cw = level.cw
        child_places: list[tuple] = []
        for s, ((i, j, _, _), n_b, ok, threshold) in enumerate(
            zip(splits, n_branches.tolist(), valid.tolist(), thresholds)
        ):
            holder, index = level.places[i]
            if not ok:
                holder[index] = LeafNode(cw[i])
                continue
            children: list[TreeNode] = [None] * n_b  # type: ignore[list-item]
            holder[index] = DecisionNode(
                class_weights=cw[i],
                attribute=self._attributes[j],
                attribute_index=j,
                threshold=threshold,
                children=children,
                branch_weights=branch_weights[s, :n_b],
            )
            child_places.extend([(children, b) for b in range(n_b)])
        if not child_places:
            return None

        # Every child's elements and weights: its branch's members, then,
        # when the branch takes a share of them, its node's missing ones
        # weighted by the branch's fraction.
        child_s, child_b = np.nonzero(
            (self._aranged(b_max) < n_branches[:, None]) & valid[:, None]
        )
        child_sizes = a_counts[child_s, child_b]
        parents = split_nodes[child_s]
        routed = False
        if missing_any:
            shares = fractions[child_s, child_b]
            m_len = np.where(shares > 0, m_counts[child_s], 0)
            routed = bool(m_len.any())
        if routed:
            m_offsets = np.cumsum(m_counts) - m_counts + src_a.size
            lengths = np.column_stack([child_sizes, m_len]).ravel()
            gather, _ = self._ranges(
                np.column_stack(
                    [a_offsets[child_s, child_b], m_offsets[child_s]]
                ).ravel(),
                lengths,
            )
            src = np.concatenate([src_a, missing])[gather]
            factors = np.column_stack([np.ones(child_s.size), shares]).ravel()
            child_w = w[src] * np.repeat(factors, lengths)
            child_sizes = child_sizes + m_len
        elif valid.all():
            src = src_a
            child_w = w[src]
        else:
            gather, _ = self._ranges(a_offsets[child_s, child_b], child_sizes)
            src = src_a[gather]
            child_w = w[src]
        child_start = np.zeros(child_sizes.size + 1, dtype=np.int64)
        np.cumsum(child_sizes, out=child_start[1:])
        unit = level.unit and not routed
        open_, child_cw, child_total = self._settle(
            rows[src], child_w, child_start, child_places, depth + 1, (cw, parents)
        )
        if open_.size == 0:
            return None

        # The open children's elements, and their sort orders derived
        # from their parents': each child's elements are scattered into
        # a key range as long as its parent, at their ranks in the
        # parent's order (see _parent_ranks), and read back in key order.
        if open_.size < child_sizes.size:
            pick, _ = self._ranges(child_start[open_], child_sizes[open_])
            src, child_w = src[pick], child_w[pick]
        open_sizes = child_sizes[open_]
        new_start = np.zeros(open_.size + 1, dtype=np.int64)
        np.cumsum(open_sizes, out=new_start[1:])
        r_next = src.size
        # The parent's arrays go as soon as the children's are derived.
        xt = level.xt[:, src]
        n_numeric = xt.shape[0]
        order = np.empty((n_numeric, r_next), dtype=np.int64)
        if n_numeric:
            rows_t = self._aranged(n_numeric)[:, None]
            ranks = self._parent_ranks(level, branch_of if routed else None)
            level.order = level.xt = None
            keys = ranks[rows_t, src]
            del ranks
            parent_spans = sizes[parents[open_]]
            key_range = int(parent_spans.sum())
            keys += rows_t * key_range
            keys += np.repeat(
                np.cumsum(parent_spans) - parent_spans - start[parents[open_]],
                open_sizes,
            )
            scatter = np.full(n_numeric * key_range, -1, dtype=np.int32)
            scatter[keys] = self._aranged(r_next)
            del keys
            order.ravel()[:] = scatter[scatter >= 0]
        if self._complete:
            known_next = np.repeat(open_sizes[:, None], n_numeric, axis=1)
        else:
            known_next = np.add.reduceat(
                ~np.isnan(xt), new_start[:-1], axis=1, dtype=np.int64
            ).T
        return _Level(
            new_start,
            rows[src],
            child_w,
            unit,
            xt,
            order,
            known_next,
            child_cw[open_],
            child_total[open_],
            [child_places[k] for k in open_.tolist()],
        )

    def _parent_ranks(self, level, branch_of) -> np.ndarray:
        """Every element's position in its node's order by every numeric
        attribute, as ``(attributes, elements)`` (a node's positions for
        one attribute are consecutive).

        A child's canonical order sorts its known values by (value,
        child position), and the child lays out its branch's members
        (in node order) before the routed missing ones (``branch_of``
        -1, in node order).  Both runs keep the parent's relative
        order, so the parent's positions order the child correctly
        except on a value tie between a member and a missing one, where
        the parent orders by node position but the child puts the member
        first.  When missing values were routed (``branch_of`` given),
        each run of equal values is therefore re-ranked members first,
        both sides keeping their order.  Missing values of the attribute
        itself come last either way.
        """
        order = level.order
        n_numeric, r_total = order.shape
        ranks = np.empty((n_numeric, r_total), dtype=np.int64)
        positions = self._aranged(r_total)
        if branch_of is None:
            ranks[self._aranged(n_numeric)[:, None], order] = positions
            return ranks
        member_of = branch_of >= 0
        node_starts = level.start[:-1]
        for t in range(n_numeric):
            # One attribute at a time keeps the temporaries to one row.
            values = level.xt[t, order[t]]
            member = member_of[order[t]]
            fresh = np.empty(r_total, dtype=bool)
            np.not_equal(values[1:], values[:-1], out=fresh[1:])
            fresh[node_starts] = True
            group_start = np.flatnonzero(fresh)
            group = np.cumsum(fresh) - 1
            members_through = np.cumsum(member)
            members_before = members_through - member
            group_base = members_before[group_start]
            group_members = np.append(group_base[1:], members_through[-1]) - group_base
            ahead = members_before - group_base[group]
            within = positions - group_start[group]
            shift = np.where(member, ahead, group_members[group] + within - ahead)
            shift -= within
            ranks[t, order[t]] = positions + shift
        return ranks

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

def _best_split(candidates: dict) -> tuple | None:
    """The reference's choice among a node's candidate splits
    ``{attribute: (gain, gain_ratio, t, cut)}``: the best gain ratio
    among the splits with at least average gain (ties to the larger
    gain, then the first attribute), as ``(j, t, cut)``."""
    if not candidates:
        return None
    if len(candidates) == 1:
        ((j, (_, _, t, cut)),) = candidates.items()
        return j, t, cut
    # The reference accumulates candidates in attribute order, and both
    # the average-gain sum and the max's first-wins tie-break depend on
    # that order.
    ordered = sorted(candidates.items())
    average_gain = sum(gain for _, (gain, _, _, _) in ordered) / len(ordered)
    best = None
    for j, (gain, ratio, t, cut) in ordered:
        if gain + _EPSILON >= average_gain and (
            best is None or (ratio, gain) > best[0]
        ):
            best = ((ratio, gain), (j, t, cut))
    return best[1]


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
