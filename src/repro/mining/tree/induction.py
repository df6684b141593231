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

__all__ = ["C45DecisionTree"]

# Gains this close to the best still count as "at least average" when
# applying the average-gain gate, mirroring C4.5's epsilon comparisons.
_EPSILON = 1e-10

# Smallest positive double: clamping probabilities to it before log2
# leaves every p > 0 bit-untouched (see _PresortedGrower._entropy_rows_fused).
_TINY = float(np.nextafter(0.0, 1.0))


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
        if len(dataset) == 0:
            raise ValueError("cannot fit a decision tree on an empty dataset")
        with obs.span("c45.fit", instances=len(dataset)) as fit_span:
            self._remember_schema(dataset)
            self._attributes = dataset.attributes
            self._n_classes = dataset.n_classes
            root = _PresortedGrower(self, dataset).grow(
                np.arange(len(dataset), dtype=np.int64),
                dataset.weights,
                dataset.presort(),
                depth=0,
            )
            if self.prune:
                root = prune_tree(root, self.confidence_factor)
            self.root = root
            fit_span.count("nodes", root.node_count())
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


class _PresortedGrower:
    """Index-based C4.5 growth over presorted columns (SPRINT-style).

    Grows the *same tree, bit for bit*, as the seed per-node-sorting
    implementation kept as the test oracle in
    ``tests/mining/_c45_reference.py`` ("the reference" below) -- every
    floating-point reduction consumes the same operand sequence in the
    same order -- while eliminating that recursion's per-node costs:

    * numeric columns are sorted once per fit (or inherited from
      :meth:`repro.mining.dataset.Dataset.presort`) and threaded
      through the recursion as filtered ``(positions, values)`` pairs;
      children of a split derive their orders by linear filtering and a
      stable two-way merge, never by re-sorting;
    * node membership travels as row-index subsets instead of copied
      matrices, and missing-value routing appends indices carrying
      fractional weights instead of duplicating rows with ``np.vstack``;
    * sort-order derivation for a child is *lazy*, so children that
      immediately bottom out as leaves never pay for it;
    * split evaluation runs over preallocated scratch buffers with the
      left/right halves of every reduction stacked into single numpy
      calls -- the arithmetic per element is unchanged (each row of a
      stacked reduction is reduced independently, exactly as the
      two-array form reduces it), only the per-call overhead goes.
    """

    def __init__(self, tree: "C45DecisionTree", dataset: Dataset) -> None:
        self._tree = tree
        self._x = dataset.x
        self._y = dataset.y
        self._attributes = dataset.attributes
        self._n_classes = dataset.n_classes
        # Slot s of the stacked evaluation holds numeric attribute
        # _numeric_js[s]; its one-hot/cumsum columns are s*C .. s*C+C-1.
        self._numeric_js = [
            j for j, a in enumerate(dataset.attributes) if a.is_numeric
        ]
        n = max(len(dataset), 1)
        c = self._n_classes
        dc = max(len(self._numeric_js), 1) * c
        self._dc = dc
        self._one_hot = np.zeros((n, dc))
        self._cumulative = np.empty((n, dc))
        self._arange = np.arange(max(n, c, len(self._numeric_js)))
        self._mask = np.empty(n, dtype=bool)
        # Column t marks the known rows of the node's t-th candidate
        # attribute (one scatter per node covers all attributes).
        self._known = np.empty((n, max(len(self._numeric_js), 1)), dtype=bool)
        # Per-candidate parent entropies (kept out of the shared
        # entropy work areas, which the boundary chain reuses later).
        self._pe = np.empty(max(len(self._numeric_js), 1))
        # Boundary-evaluation scratch, sized on first use to twice the
        # root's stacked known count (children only shrink): row i of
        # the left block and row F + i of the right block pair up.
        self._stack_rows = 0

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
        self._pos = np.empty((r, c), dtype=bool)
        self._stack_rows = r

    # -- recursion ------------------------------------------------------
    def grow(self, rows, w, lists, depth: int) -> TreeNode:
        """``lists`` is the node's per-attribute sort orders, or a
        zero-argument callable producing them (lazy derivation)."""
        tree = self._tree
        y_node = self._y[rows]
        class_weights = np.bincount(y_node, weights=w, minlength=self._n_classes)
        total = class_weights.sum()
        if (
            total < 2 * tree.min_leaf_weight
            or np.count_nonzero(class_weights) <= 1
            or (tree.max_depth is not None and depth >= tree.max_depth)
        ):
            return LeafNode(class_weights)

        if callable(lists):
            lists = lists()
        split = self._best_split(rows, y_node, w, total, lists)
        if split is None:
            return LeafNode(class_weights)

        j = split.attribute_index
        attribute = self._attributes[j]
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
            column = self._x[rows, j]
            known = ~np.isnan(column)
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
            route_missing = has_missing and fraction > 0
            if route_missing:
                child_rows = np.concatenate([rows[mask], rows[missing]])
                child_w = np.concatenate([w[mask], w[missing] * fraction])
            else:
                child_rows = rows[mask]
                child_w = w[mask]
            if child_w.sum() <= 0:
                children.append(LeafNode(class_weights.copy()))
            else:
                # Both derivations produce the identical canonical sort
                # orders (see _resorted_lists); filtering scans the
                # parent's lists at O(parent size) per attribute, so a
                # child much smaller than its parent re-sorts instead.
                if child_rows.size <= 64 or child_rows.size * 8 <= m:
                    child_lists = functools.partial(
                        _resorted_lists, self._x, child_rows, self._attributes
                    )
                else:
                    child_lists = functools.partial(
                        _filter_lists, lists, mask, missing if route_missing else None
                    )
                children.append(self.grow(child_rows, child_w, child_lists, depth + 1))

        return DecisionNode(
            class_weights=class_weights,
            attribute=attribute,
            attribute_index=j,
            threshold=split.threshold,
            children=children,
            branch_weights=branch_weights,
        )

    # -- split selection ------------------------------------------------
    def _best_split(self, rows, y_node, w, total, lists) -> _Split | None:
        tree = self._tree
        m = rows.size
        # For columns with no missing value at this node the reference's
        # known-weight sum w[known].sum() reduces a verbatim copy of w,
        # so one shared w.sum() serves every such column.
        w_sum = w.sum()
        by_index: dict[int, _Split] = {}
        if self._numeric_js:
            self._numeric_splits(rows, y_node, w, total, m, w_sum, lists, by_index)
        for j, attribute in enumerate(self._attributes):
            if not attribute.is_numeric:
                candidate = self._nominal_split(
                    rows, y_node, w, total, m, w_sum, j, attribute
                )
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

    def _numeric_splits(
        self, rows, y_node, w, total, m, w_sum, lists, by_index
    ) -> None:
        """Evaluate every numeric attribute of the node in one stacked
        pass, reproducing the reference evaluation bit for bit.

        Per-attribute candidate cuts are laid side by side: attribute
        slot ``s`` owns columns ``s*C .. s*C+C-1`` of one (rows, d*C)
        one-hot matrix, so a single column-wise cumsum produces every
        attribute's running class counts at once (cumsum is sequential
        per column, and trailing zero rows of shorter columns add 0.0,
        which never changes a float).  Boundary detection, feasibility,
        and the entropy/gain chain then run once over the concatenated
        boundary rows of all attributes -- every row of those
        reductions belongs to exactly one attribute and is reduced
        independently, so each sees the operand sequence the reference
        gave it -- and only the tiny per-attribute argmax loop remains.
        """
        tree = self._tree
        c = self._n_classes
        dc = self._dc
        arange = self._arange
        # Candidate slots: numeric attributes with at least one known row.
        cand = [
            (s, j, lists[j][0], lists[j][1])
            for s, j in enumerate(self._numeric_js)
            if lists[j][0].size
        ]
        if not cand:
            return
        n_cand = len(cand)
        sizes = [positions.size for _, _, positions, _ in cand]
        sz = np.array(sizes)
        positions_cat = (
            cand[0][2]
            if n_cand == 1
            else np.concatenate([p for _, _, p, _ in cand])
        )
        # Known-row weights, batched: one boolean scatter marks every
        # attribute's known rows at once, then each attribute that has
        # missing values sums its own rows in node order -- exactly the
        # reference's per-attribute w[~isnan(column)].sum().
        kws = [w_sum] * n_cand
        need = [t for t, nk in enumerate(sizes) if nk != m]
        if need:
            km = self._known[:m, :n_cand]
            km[:] = False
            km[positions_cat, np.repeat(arange[:n_cand], sz)] = True
            for t in need:
                kws[t] = w[km[:, t]].sum()
        # Admission gate, exactly the reference's.
        min2 = 2 * tree.min_leaf_weight
        if any(kw < min2 for kw in kws):
            kept = [t for t in range(n_cand) if kws[t] >= min2]
            if not kept:
                return
            cand = [cand[t] for t in kept]
            kws = [kws[t] for t in kept]
            sizes = [sizes[t] for t in kept]
            n_cand = len(cand)
            sz = np.array(sizes)
            positions_cat = (
                cand[0][2]
                if n_cand == 1
                else np.concatenate([p for _, _, p, _ in cand])
            )
        max_known = max(sizes)
        stack = int(positions_cat.size)
        self._ensure_stack(2 * stack)

        values = (
            cand[0][3]
            if n_cand == 1
            else np.concatenate([v for _, _, _, v in cand])
        )
        col_starts = np.array([s * c for s, _, _, _ in cand])
        ends = np.cumsum(sz)
        offs0 = ends - sz
        # One scatter builds every attribute's one-hot block: row i of
        # block t is the i-th sorted known row of that attribute.
        row_idx = (
            arange[:stack]
            if n_cand == 1
            else np.concatenate([arange[:nk] for nk in sizes])
        )
        col_idx = y_node[positions_cat] + np.repeat(col_starts, sz)
        one_hot = self._one_hot[:max_known]
        one_hot[:] = 0.0
        one_hot[row_idx, col_idx] = w[positions_cat]
        left_counts = one_hot.cumsum(axis=0, out=self._cumulative[:max_known])
        flat = left_counts.ravel()  # contiguous view of the buffer slice

        # Per-attribute totals live in the last valid row of each block.
        # Parent entropies come from one fused row chain when every row
        # reduction is sequential from 0.0 (C < 8) and every total
        # clears the reference's positivity test by a wide margin; the
        # degenerate cases fall back to the per-attribute scalar replica
        # of _entropy.
        arange_c = arange[:c]
        tot = flat[((sz - 1) * dc + col_starts)[:, None] + arange_c]
        if c < 8 and min(kws) >= 1e-300:
            pe = self._entropy_rows_fused(tot, self._pe[:n_cand])
        else:
            pe = np.array([_entropy_fast(tot[t]) for t in range(n_cand)])

        # values[1:] > values[:-1] is IEEE-equivalent to the reference's
        # diff(values) > 0 (x - y > 0 iff x > y under gradual underflow,
        # and both give False whenever the difference is NaN).  At the
        # joints between attribute segments the comparison crosses
        # attributes; mask those positions out.
        cmp = values[1:] > values[:-1]
        if n_cand > 1:
            cmp[ends[:-1] - 1] = False
        bnd = np.flatnonzero(cmp)
        if bnd.size == 0:
            return
        # Boundaries per attribute segment, in ascending slot order.
        cuts = np.searchsorted(bnd, ends[:-1])
        b_counts = np.diff(np.concatenate([[0], cuts, [bnd.size]]))
        big = int(bnd.size)

        slot_of = np.repeat(arange[:n_cand], b_counts)
        local = bnd - offs0[slot_of]
        col_base = col_starts[slot_of]
        lr = self._lr[: 2 * big]
        np.take(flat, (local * dc + col_base)[:, None] + arange_c, out=lr[:big])
        np.subtract(tot[slot_of], lr[:big], out=lr[big:])
        branch_w = np.add.reduce(lr, axis=1)
        ge = branch_w >= tree.min_leaf_weight
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
        # reference's per-element arithmetic (the per-attribute scalars
        # kw, H(parent), kw/total arrive as per-row vectors; multiplying
        # or dividing by a broadcast scalar and by a vector holding that
        # scalar are the same element operation).
        kw_arr = np.array(kws)
        h = self._entropy_rows_fused(counts, self._h[: 2 * f])
        np.multiply(weights_f, h, out=h)
        info = np.add(h[:f], h[f:], out=h[:f])
        np.divide(info, kw_arr[slot_f], out=info)
        np.subtract(pe[slot_f], info, out=info)
        gains = np.multiply(info, (kw_arr / total)[slot_f], out=info)

        # First-max argmax within each attribute's feasible segment,
        # exactly the reference's per-attribute np.argmax.
        seg_counts = np.bincount(slot_f, minlength=n_cand)
        start = 0
        for t, (s, j, _, _) in enumerate(cand):
            count = int(seg_counts[t])
            if count == 0:
                continue
            seg = gains[start : start + count]
            best = int(seg.argmax())
            gain = float(seg[best])
            row = start + best
            start += count
            if gain <= _EPSILON:
                continue
            g = int(bnd[row] if fidx is None else bnd[int(fidx[row])])
            threshold = _threshold_between(values[g], values[g + 1])
            split_info = _split_info_scalar(
                (weights_f[row], weights_f[f + row]),
                total - kws[t],
                total,
            )
            if split_info <= _EPSILON:
                continue
            by_index[j] = _Split(j, gain, gain / split_info, threshold)

    def _nominal_split(
        self, rows, y_node, w, total, m, w_sum, j, attribute
    ) -> _Split | None:
        """The reference's ``_nominal_split``, op for op, with the
        grower's scratch buffers and scalar tails."""
        tree = self._tree
        n_values = len(attribute.values)
        self._ensure_stack(n_values)
        column = self._x[rows, j]
        known = ~np.isnan(column)
        n_known = int(np.count_nonzero(known))
        if n_known == 0:
            return None
        if n_known == m:
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
        if np.count_nonzero(branch_weight >= tree.min_leaf_weight) < 2:
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
    x: np.ndarray, rows: np.ndarray, attributes: tuple
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Build a node's sort orders by sorting its columns directly.

    Produces exactly the object :func:`_filter_lists` derives -- for
    each numeric column, the node-local positions of the known values
    ordered by ``(value, node position)`` -- because that ordering is
    unique and a stable argsort of the child column realises it (NaNs
    sort last and are trimmed).  Used for small children of large
    nodes, where filtering the parent's lists costs O(parent size) per
    attribute but re-sorting costs only O(child size log child size).
    """
    out: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for j, attribute in enumerate(attributes):
        if not attribute.is_numeric:
            continue
        column = x[rows, j]
        order = np.argsort(column, kind="stable")
        n_known = column.size - int(np.count_nonzero(np.isnan(column)))
        positions = order[:n_known]
        out[j] = (positions, column[positions])
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
