"""Tree family: CART, bootstrap forests, and stagewise boosted trees.

CART and forests search splits exactly: every candidate feature is
scanned over the midpoints between consecutive distinct values,
minimizing summed squared error (regression) or summed Gini impurity
(classification). The split rule is fixed down to its ties:

- each column is sorted once per fit by a stable argsort, so equal values
  keep ascending row order, and each node's sorted columns reach its
  children by stable partition; a node's scan therefore sees its rows in
  (value, row index) order;
- within a feature, the first minimum-cost position in that order wins;
- across features, the first candidate feature (lowest column index) with
  the smallest finite cost wins;
- a node's rows are kept in ascending row order, so node costs and leaf
  values sum the same arrays in the same order on every path.

A feature with no allowed split (all values equal, or none leaving
``min_samples_leaf`` rows per side) is skipped.

Every CART and forest tree grows one level at a time (breadth first, as
in SLIQ), by one grower. The nodes of a level own consecutive ranges of
one array with a row per column and one for the rows themselves, and one
stable partition of that array makes the next level: the left children's
ranges, then the right children's. All the
(node, feature) rows a level scans are scored together, longest first, in
blocks of at most ``_BLOCK`` values, each row padded with zeros to the
longest of its block. A zero-padded ``cumsum`` equals each row's own
``cumsum`` bit for bit, but a padded pairwise ``sum`` does not, so the
totals of a row, the costs of nodes and the values of leaves are summed
over each node's unpadded slice. The tree is therefore the depth-first
tree, node for node, whatever the blocking.

Forests sample features by level: after its bootstrap draw, each tree
draws ``rng.random((nodes, w))`` per level from its own generator, one row
per node of the level in level order (parents in level order, a left
child before its right). A node's candidate features are the sorted first
``feature_sample`` columns of its row's stable argsort.

Boosted trees split on binned columns instead, as in LightGBM (Ke et
al., NeurIPS 2017). ``fit`` bins every column once, and all stages share
the bins:

- a column with at most ``_MAX_BINS`` (255) distinct values gets one bin
  per value; a wider one gets runs of consecutive distinct values, cut
  where a row-count quantile falls, at most ``_MAX_BINS`` of them;
- each level of a stage scores its nodes from two ``bincount`` calls
  over (node, column, bin) keys, the residual sums and the row counts,
  and cumulative sums along the bins; a deep level with more nodes than
  that histogram can hold in as many cells as the level has keys is
  scored in runs of nodes, so memory stays flat;
- the gain of a split is the drop in squared error, SL^2/nL + SR^2/nR -
  S^2/n, with ``min_samples_leaf`` rows on each side; the first largest
  gain in (column, bin) order wins, and a node splits when it exceeds
  ``_MIN_GAIN``;
- the threshold is the midpoint between the highest training value of
  the last left bin and the lowest of the node's first occupied bin on
  the right (or that highest value, where the midpoint is not below the
  lowest). On a column with at most 255 distinct values the candidate
  splits and thresholds are therefore the exact engine's; sums rounded
  in another order can still break a near tie the other way.

A fitted model keeps all its trees in one node table of parallel arrays,
one entry per node: ``feature_``, ``threshold_``, ``left_``, ``right_``
and ``value_`` (``(nodes,)`` for regression, ``(nodes, n_classes)`` for
classification), plus ``roots_``, the root of each tree. Each tree's
nodes are stored in level order; predict reads a table in any order, so
tables stored in preorder still load. A row at a split goes left when
``X[row, feature] <= threshold``. A leaf has feature -1, threshold NaN
and both children pointing to itself, so ``_walk`` can move every tree
and every row at once, one level per step, for as many steps as the
deepest tree has levels: a row that reaches a leaf early stays on it.
A split's value is zero and never read. Rows are walked in blocks of
about ``_WALK`` (tree, row) pairs, so memory stays flat. A forest sums
its trees and boosting its stages in tree order, by ``cumsum``, so a
row's prediction does not depend on the block that holds it, a block of
one row included.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from .simple import Model, check_task

_MIN_GAIN = 1e-12
_BLOCK = 1 << 13
_PAD = 64  # most padding per row of a scan block
_WALK = 1 << 16  # (tree, row) pairs walked at once
_MAX_BINS = 255  # most bins per column in boosting


def _presort(X: np.ndarray) -> np.ndarray:
    """Row indices of each column of ``X`` in (value, row) order, shape (w, n)."""
    return np.argsort(X.T, axis=1, kind="stable")


def _dense_ranks(X: np.ndarray) -> np.ndarray:
    """Rank of each cell among its column's distinct values, shape (w, n)."""
    order = np.argsort(X.T, axis=1)
    xs = np.take_along_axis(X.T, order, axis=1)
    steps = np.zeros(order.shape, dtype=np.int64)
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=steps[:, 1:])
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps, axis=1)
    return ranks


def _level_stats(y: np.ndarray, sizes: np.ndarray, scored: np.ndarray, n_classes: int):
    """Impurity and leaf value of each node of a level.

    ``y`` holds the nodes' targets back to back, each node's in ascending
    row order. A regression node's totals are numpy's pairwise sums of its
    own slice, as if it stood alone, and its impurity is 0 unless it is
    ``scored``; class counts are exact in any order.
    """
    if n_classes:
        node = np.repeat(np.arange(len(sizes)), sizes)
        counts = np.bincount(node * n_classes + y, minlength=len(sizes) * n_classes)
        counts = counts.reshape(-1, n_classes).astype(float)
        return sizes - (counts * counts).sum(axis=1) / sizes, counts / sizes[:, None]
    ends = sizes.cumsum().tolist()
    nodes = list(zip([0] + ends[:-1], ends, scored.tolist()))
    s = np.array([np.add.reduce(y[a:b]) for a, b, _ in nodes])
    sq = y * y
    s2 = np.array([np.add.reduce(sq[a:b]) if c else 0.0 for a, b, c in nodes])
    return np.where(scored, s2 - s * s / sizes, 0.0), s / sizes


def _row_sums(sizes: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """Sum of the first ``sizes[i]`` values of row ``i`` of each array, as numpy sums that slice alone.

    A padded row's pairwise sum differs from the unpadded one, so each run
    of rows of one length is summed over that length only.
    """
    sums = [np.empty(len(sizes)) for _ in arrays]
    cuts = [0, *(np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist(), len(sizes)]
    for start, end in zip(cuts[:-1], cuts[1:]):
        for a, out in zip(arrays, sums):
            np.add.reduce(a[start:end, : sizes[start]], axis=1, out=out[start:end])
    return sums


def _split_costs(xs: np.ndarray, ys: np.ndarray, sizes, n_classes: int,
                 min_leaf: int) -> np.ndarray:
    """Cost of a split after each position of each sorted row; inf where none is allowed.

    Column ``j`` is the split after position ``j + min_leaf - 1``: positions
    before it, or past the last ``min_leaf`` of the longest row, leave a
    side too small and are not scored. ``sizes`` is None when every row is
    full. Otherwise row ``i`` holds ``sizes[i]`` values, then padding:
    ``xs`` repeats the row's last value, so ties block every split past its
    end, and ``ys`` is 0 for regression and -1 for classes. Trailing zeros
    change no earlier prefix of a ``cumsum``, so the costs before the
    padding are the unpadded row's, bit for bit.
    """
    n = xs.shape[1]
    first, stop = min_leaf - 1, n - min_leaf
    left_n = np.arange(min_leaf, stop + 1, dtype=float)
    padded = sizes is not None
    if padded:
        # Below 1 only past a row's end, where ties block every split.
        right_n = np.maximum(sizes[:, None] - left_n, 1)
    else:
        right_n = n - left_n
    if n_classes:
        left_sq = np.zeros((len(xs), stop - first))
        right_sq = np.zeros_like(left_sq)
        for c in range(n_classes):
            cum = (ys == c).cumsum(axis=1)
            right = cum[:, -1:] - cum[:, first:stop]
            cum = cum[:, first:stop]
            cum *= cum
            left_sq += cum
            right *= right
            right_sq += right
        left_sq /= left_n
        cost = np.subtract(left_n, left_sq, out=left_sq)
        right_sq /= right_n
        cost += np.subtract(right_n, right_sq, out=right_sq)
    else:
        # (cs2 - cs**2 / left_n) + ((total_s2 - cs2) - (total_s - cs)**2 / right_n)
        sq = ys * ys
        totals = _row_sums(sizes, ys, sq) if padded else [np.add.reduce(v, axis=1) for v in (ys, sq)]
        total_s, total_s2 = (total[:, None] for total in totals)
        cs = ys.cumsum(axis=1)[:, first:stop]
        cs2 = sq.cumsum(axis=1)[:, first:stop]
        cost = np.multiply(cs, cs, out=sq[:, first:stop])
        cost /= left_n
        np.subtract(cs2, cost, out=cost)
        np.subtract(total_s, cs, out=cs)
        cs *= cs
        cs /= right_n
        np.subtract(total_s2, cs2, out=cs2)
        cs2 -= cs
        cost += cs2
    np.copyto(cost, np.inf, where=xs[:, first:stop] == xs[:, min_leaf : stop + 1])
    if padded and min_leaf > 1:
        np.copyto(cost, np.inf, where=right_n < min_leaf)
    return cost


def _blocks(widths: list) -> list:
    """Bounds of blocks of rows ordered longest first.

    A block holds at most ``_BLOCK`` padded values, and pads no row by more
    than ``_PAD`` values.
    """
    bounds = [0]
    while bounds[-1] < len(widths):
        start = bounds[-1]
        end = min(len(widths), start + max(1, _BLOCK // widths[start]))
        while widths[end - 1] < widths[start] - _PAD:
            end -= 1
        bounds.append(end)
    return bounds


def _best_splits(Xt, Yt, level, starts, sizes, features, n_classes: int, min_leaf: int):
    """(cost, feature, threshold) of each node's best split; cost inf where none is allowed.

    Row ``j`` of ``level`` holds indices into ``Xt``, ``X.T`` raveled, and
    into ``Yt``, ``y`` repeated once per column. Node ``i`` owns positions
    ``starts[i]:starts[i] + sizes[i]`` of each row of ``level`` and scans
    the columns ``features[i]``, ascending. The (node, feature) rows are scored
    together, longest first, in blocks (see ``_blocks``); each block is
    padded to its longest row.
    """
    nodes, per_node = features.shape
    m = level.shape[1]
    row_feature = features.ravel()
    row_size = sizes.repeat(per_node)
    row_start = starts.repeat(per_node)
    first = row_feature * m + row_start  # in level.ravel()
    # A row sorts its values, so it is constant, with no split, when its
    # first value equals its last. The others are scanned longest first.
    live = Xt.take(level.take(first)) < Xt.take(level.take(first + row_size - 1))
    scan = live.nonzero()[0]
    scan = scan[(-row_size[scan]).argsort(kind="stable")]
    low = np.full(len(row_feature), np.inf)
    lo, hi = np.zeros(len(row_feature)), np.zeros(len(row_feature))
    widths, node_start = row_size[scan].tolist(), row_start[scan].tolist()
    scan_feature, scan_size, first = row_feature[scan], row_size[scan], first[scan, None]
    span = np.arange(widths[0] if widths else 0)
    bounds = _blocks(widths)
    for a, b in zip(bounds[:-1], bounds[1:]):
        width, size = widths[a], scan_size[a:b]
        padded = widths[b - 1] < width
        if node_start[a] == node_start[b - 1]:  # the rows of one node
            o = level[scan_feature[a:b], node_start[a] : node_start[a] + width]
        else:
            at = first[a:b] + span[:width]
            if padded:
                np.minimum(at, first[a:b] + (size[:, None] - 1), out=at)
            o = level.take(at)
        xs, ys = Xt.take(o), Yt.take(o)
        if padded:
            ys[span[:width] >= size[:, None]] = -1 if n_classes else 0
        cost = _split_costs(xs, ys, size if padded else None, n_classes, min_leaf)
        r = np.arange(b - a)
        j = cost.argmin(axis=1)
        pos = j + (min_leaf - 1)
        rows = scan[a:b]
        low[rows], lo[rows], hi[rows] = cost[r, j], xs[r, pos], xs[r, pos + 1]
    low[~np.isfinite(low)] = np.inf
    best = low.reshape(nodes, per_node).argmin(axis=1)
    best += np.arange(0, nodes * per_node, per_node)
    return low[best], features.ravel()[best], _thresholds(lo[best], hi[best])


def _thresholds(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Threshold between each highest left value ``lo`` and lowest right value ``hi``.

    The midpoint, or ``lo`` where the midpoint is not below ``hi``: with
    adjacent floats, an overflow or -inf and inf, it would send every row
    left.
    """
    thresholds = []
    for lo_, hi_ in zip(lo.tolist(), hi.tolist()):
        # Python floats: -inf + inf and overflow give NaN and inf without a warning.
        mid = 0.5 * (lo_ + hi_)
        thresholds.append(mid if mid < hi_ else lo_)
    return np.array(thresholds)


class _Table:
    """Nodes of one or more trees while they grow, appended a level at a time."""

    def __init__(self, n_classes: int):
        self.n_classes = n_classes
        self.size = 0
        self.roots = []
        self.levels = []

    def add(self, feature, threshold, value) -> np.ndarray:
        """Append one level's nodes, in level order; return each one's count of splits before it.

        The children of the level's i-th split follow the level, at 2i and
        2i + 1; a leaf (feature -1) is its own left and right child.
        """
        nodes = len(feature)
        is_split = feature >= 0
        before = is_split.cumsum() - is_split
        left = np.where(
            is_split, self.size + nodes + 2 * before, np.arange(self.size, self.size + nodes)
        ).astype(np.int32)
        self.levels.append((feature.astype(np.int32), threshold, left, left + is_split, value))
        self.size += nodes
        return before


_TABLE = ("roots_", "feature_", "threshold_", "left_", "right_", "value_")


class _TreeModel(Model):
    """A model whose fitted trees are one node table (see the module docstring)."""

    def __init__(self, max_depth: int | None, min_samples_split: int, min_samples_leaf: int):
        if min_samples_split < 2 or min_samples_leaf < 1:
            raise ConfigurationError("invalid split/leaf minimums")
        if max_depth is not None and max_depth < 0:
            raise ConfigurationError("max_depth must be nonnegative")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf

    def _grow(self, table: _Table, X, y, order, rng=None, feature_sample=None) -> None:
        """Append one tree fitted on checked inputs, one level at a time.

        ``order`` is the presort of ``X``. Each node of a level owns a range
        of every row of ``level``: row j < w holds the node's rows in
        (value, row) order by column j, as ``j * n + row``, and the last row
        holds them ascending. ``rank`` gives each range's place in level
        order.
        """
        n_classes = table.n_classes
        n, w = X.shape
        Xt = np.ascontiguousarray(X.T)
        Yt = np.tile(y, w)
        max_depth = math.inf if self.max_depth is None else self.max_depth
        smallest = max(self.min_samples_split, 2 * self.min_samples_leaf)
        level = np.empty((w + 1, n), dtype=np.int32 if (w + 1) * n < 2**31 else np.intp)
        level[:w], level[w] = order, np.arange(n)
        level[:w] += n * np.arange(w, dtype=level.dtype)[:, None]
        sizes = np.array([n])
        rank = np.zeros(1, dtype=np.intp)  # each node's place in level order
        goes = np.empty(n, dtype=np.int8)  # per row: 1 left, 2 right, 0 in a leaf
        table.roots.append(table.size)
        depth = 0
        while True:
            nodes = len(sizes)
            rows = level[-1]
            scored = sizes >= smallest if depth < max_depth and w else np.zeros(nodes, bool)
            cost, value = _level_stats(y.take(rows), sizes, scored, n_classes)
            starts = sizes.cumsum() - sizes
            node_feature = np.full(nodes, -1)
            node_threshold = np.full(nodes, math.nan)
            split = (scored & ~(cost <= _MIN_GAIN)).nonzero()[0]
            if len(split):
                if feature_sample is not None and feature_sample < w:
                    # One row per node of the level, in level order. A level
                    # that searches no node ends its tree, so it draws nothing.
                    draws = rng.random((nodes, w))[rank[split]]
                    features = draws.argsort(axis=1, kind="stable")[:, :feature_sample]
                    features.sort(axis=1)
                else:
                    features = np.arange(w)[None].repeat(len(split), axis=0)
                low, feature, threshold = _best_splits(
                    Xt, Yt, level, starts[split], sizes[split], features, n_classes,
                    self.min_samples_leaf,
                )
                keep = ~(cost[split] - low <= _MIN_GAIN)
                split = split[keep]
                node_feature[split] = feature[keep]
                node_threshold[split] = threshold[keep]
                value[split] = 0.0
            # The table takes the level in level order.
            slot = rank.argsort()
            splits_before = table.add(node_feature[slot], node_threshold[slot], value[slot])
            if not len(split):
                return
            # One stable partition of the whole level: the left children's
            # ranges first, then the right children's. Children at the depth
            # limit are leaves and need only their rows.
            depth += 1
            if depth >= max_depth:
                level = level[-1:]
            x = Xt.take((np.maximum(node_feature, 0) * n).repeat(sizes) + rows)
            # X holds no NaN, so ">" is exactly "not <=" at every split, and a
            # leaf's NaN threshold sends none of its rows right.
            goes[rows] = np.add(
                x > node_threshold.repeat(sizes), (node_feature >= 0).repeat(sizes),
                dtype=np.int8,
            )
            where = np.concatenate((goes,) * w).take(level)  # goes, read by index into Xt
            left_sizes = np.add.reduceat(where[-1] == 1, starts)[split]
            sizes = np.concatenate([left_sizes, sizes[split] - left_sizes])
            where, flat = where.ravel(), level.ravel()
            level = np.concatenate(
                [flat.compress(where == side).reshape(len(level), -1) for side in (1, 2)],
                axis=1,
            )
            k = splits_before[rank[split]]
            rank = np.concatenate([2 * k, 2 * k + 1])

    def _store(self, table: _Table) -> None:
        self.roots_ = np.array(table.roots, dtype=np.int32)
        columns = map(np.concatenate, zip(*table.levels))
        self.feature_, self.threshold_, self.left_, self.right_, self.value_ = columns
        self._derive()

    def _derive(self) -> None:
        """The walk's index arrays, and ``_levels``, the split levels of the deepest tree.

        ``_children[2 * node + go_right]`` is a node's child; ``_feature``
        sends a leaf to column 0, which it reads and ignores.
        """
        n = len(self.feature_)
        lengths = {len(self.threshold_), len(self.left_), len(self.right_), len(self.value_)}
        if not len(self.roots_) or lengths != {n}:
            raise ValueError("the node table is empty or its arrays differ in length")
        if not -1 <= self.feature_.min() <= self.feature_.max() < self.n_features_:
            raise ValueError("a node reads a column outside the fitted width")
        levels, nodes = 0, self.roots_
        while True:
            nodes = nodes[self.left_[nodes] != nodes]
            if not len(nodes):
                break
            levels += 1
            if levels > n:
                raise ValueError("the node table has a cycle")
            nodes = np.concatenate([self.left_[nodes], self.right_[nodes]])
        self._levels = levels
        self._children = np.stack([self.left_, self.right_], axis=1).ravel().astype(np.intp)
        self._feature = np.maximum(self.feature_, 0).astype(np.intp)

    def _apply(self, X, reduce) -> np.ndarray:
        """``reduce`` of the leaf values of every tree, one block of checked rows at a time.

        ``reduce`` maps the ``(trees, rows)`` or ``(trees, rows, k)`` leaf
        values of a block to one result per row, the same whatever block
        holds the row.
        """
        step = max(1, _WALK // len(self.roots_))
        parts = [reduce(self._walk(X[i : i + step])) for i in range(0, max(len(X), 1), step)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _walk(self, X: np.ndarray) -> np.ndarray:
        n, w = X.shape
        cells = np.ascontiguousarray(X).ravel()
        row_start = np.arange(n) * w
        node = np.repeat(self.roots_.astype(np.intp)[:, None], n, axis=1)
        for _ in range(self._levels):
            # X holds no NaN, so ">" is exactly "not <=" at every split.
            go_right = cells[row_start + self._feature[node]] > self.threshold_[node]
            node = self._children[2 * node + go_right]
        return self.value_[node]


def _only_tree(values: np.ndarray) -> np.ndarray:
    return values[0]


def _tree_mean(values: np.ndarray) -> np.ndarray:
    """Mean over trees summed in tree order (``mean`` sums a lone row's values pairwise)."""
    return np.cumsum(values, axis=0, out=values)[-1] / len(values)


class Cart(_TreeModel):
    """Greedy binary decision tree; probabilities are leaf class frequencies."""

    method = "cart"
    _fitted = _TABLE + ("n_classes_", "n_features_")

    def __init__(
        self,
        task: str = "regression",
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
    ):
        super().__init__(max_depth, min_samples_split, min_samples_leaf)
        self.task = check_task(task)

    def fit(self, X, y, n_classes: int | None = None) -> "Cart":
        X, y = self._fit_inputs(X, y, n_classes)
        table = _Table(self.n_classes_)
        self._grow(table, X, y, _presort(X))
        self._store(table)
        return self

    def predict(self, X) -> np.ndarray:
        if self.is_classifier:
            return np.argmax(self.predict_proba(X), axis=1)
        return self._apply(self._inputs(X), _only_tree)

    def predict_proba(self, X) -> np.ndarray:
        return self._apply(self._inputs(X, proba=True), _only_tree)


class RandomForest(_TreeModel):
    """Bootstrap ensemble of CARTs with per-split feature subsampling.

    Tree t draws its bootstrap sample, then its features level by level
    (see the module docstring), from a generator seeded with ``seed + t``.
    With ``bootstrap=False``, ``feature_subsample=False`` and ``n_trees=1``
    the forest reproduces a single CART exactly.
    """

    method = "random_forest"
    _fitted = _TABLE + ("n_classes_", "n_features_")

    def __init__(
        self,
        task: str = "regression",
        n_trees: int = 10,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        bootstrap: bool = True,
        feature_subsample: bool = True,
        seed: int = 0,
    ):
        super().__init__(max_depth, min_samples_split, min_samples_leaf)
        if n_trees < 1:
            raise ConfigurationError("n_trees must be at least 1")
        self.task = check_task(task)
        self.n_trees = n_trees
        self.bootstrap = bootstrap
        self.feature_subsample = feature_subsample
        self.seed = seed

    def fit(self, X, y, n_classes: int | None = None) -> "RandomForest":
        X, y = self._fit_inputs(X, y, n_classes)
        n, w = X.shape
        per_split = max(1, math.ceil(math.sqrt(w))) if self.feature_subsample else None
        ranks = _dense_ranks(X)
        positions = np.arange(n)
        table = _Table(self.n_classes_)
        for t in range(self.n_trees):
            rng = np.random.default_rng(self.seed + t)
            rows = rng.integers(0, n, n) if self.bootstrap else positions
            # The keys are distinct and ordered as (value, position) in the
            # sample, so any sort of them gives the sample's stable presort.
            order = np.argsort(ranks[:, rows] * n + positions, axis=1)
            # Columns of the sample contiguous, as the growth reads them.
            self._grow(table, X.T.take(rows, axis=1).T, y[rows], order, rng, per_split)
        self._store(table)
        return self

    def predict(self, X) -> np.ndarray:
        if self.is_classifier:
            return np.argmax(self.predict_proba(X), axis=1)
        return self._apply(self._inputs(X), _tree_mean)

    def predict_proba(self, X) -> np.ndarray:
        return self._apply(self._inputs(X, proba=True), _tree_mean)


def _bins(X: np.ndarray):
    """Bin key of every cell, shape (n, w), each bin's lowest and highest training value, and ``bins``.

    A column with at most ``_MAX_BINS`` distinct values gets one bin per
    value. A wider one is cut into runs of consecutive distinct values
    where a row-count quantile ``i * n / _MAX_BINS`` falls, so it too gets
    at most ``_MAX_BINS`` bins. With ``bins`` the most bins of any column,
    a cell of column j in bin b has key ``j * bins + b``, which also
    indexes the returned ``lo`` and ``hi``; their entries past a column's
    last bin are never read.
    """
    n, w = X.shape
    keys = np.empty((n, w), dtype=np.intp)
    lo, hi = np.zeros((2, w, _MAX_BINS))
    bins = 1
    for j, x in enumerate(X.T):
        values, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
        if len(values) > _MAX_BINS:
            quantile = (counts.cumsum() - counts) * _MAX_BINS // n
            of_value = np.concatenate([[0], (quantile[1:] != quantile[:-1]).cumsum()])
        else:
            of_value = np.arange(len(values))
        keys[:, j] = of_value[inverse]
        first = np.flatnonzero(np.diff(of_value, prepend=-1))
        lo[j, : len(first)] = values[first]
        hi[j, : len(first)] = values[np.append(first[1:], len(values)) - 1]
        bins = max(bins, len(first))
    keys += np.arange(0, w * bins, bins)
    return keys, lo[:, :bins].ravel(), hi[:, :bins].ravel(), bins


def _binned_splits(keys, rows, lo, hi, bins: int, node, c, nodes: int, min_leaf: int):
    """(node, key, threshold) of each split of ``nodes`` nodes with a gain above ``_MIN_GAIN``.

    Row ``rows[i]`` of ``keys`` (see ``_bins``) sits in node ``node[i]`` with
    centered residual ``c[i]``. Two bincounts over (node, column, bin) give every
    bin's residual sum and row count in a node, and cumulative sums along
    the bins give the left side of every split. The split after bin b
    sends the node's rows in bins up to b left; it is allowed when each
    side holds ``min_leaf`` rows, and its gain is SL^2/nL + SR^2/nR - S^2/n.
    The first maximum in (column, bin) order wins; an empty bin repeats
    the gain of the bin before it, so the winner, whose key is returned,
    is an occupied bin.
    """
    width = keys.shape[1] * bins
    keys = keys.take(rows, axis=0)
    keys += (node * width)[:, None]
    left_n = np.bincount(keys.ravel(), minlength=nodes * width).reshape(-1, bins)
    left_n = left_n.cumsum(axis=1, dtype=float)
    left_s = np.bincount(keys.ravel(), c.repeat(keys.shape[1]), nodes * width)
    left_s = left_s.reshape(-1, bins).cumsum(axis=1)
    s, n = left_s[:, -1:], left_n[:, -1:]
    right_s, right_n = s - left_s, n - left_n
    gain = np.square(left_s)
    gain /= np.maximum(left_n, 1)
    np.square(right_s, out=right_s)
    right_s /= np.maximum(right_n, 1)
    gain += right_s
    gain -= s * s / n
    gain[(left_n < min_leaf) | (right_n < min_leaf)] = -np.inf
    gain = gain.reshape(nodes, width)
    key = gain.argmax(axis=1)
    split = (gain[np.arange(nodes), key] > _MIN_GAIN).nonzero()[0]
    key = key[split]
    # The node's first occupied bin on the right is the first whose
    # cumulative count passes the cut's.
    row = left_n.reshape(nodes, -1, bins)[split, key // bins]
    right = (row <= row[np.arange(len(split)), key % bins, None]).sum(axis=1)
    return split, key, _thresholds(hi.take(key), lo.take(key - key % bins + right))


class GradientBoosted(_TreeModel):
    """Stagewise regression trees on residuals, initialized at the mean.

    Prediction is mean + learning_rate * sum of stage trees. The trees
    split on binned columns (see the module docstring): ``fit`` bins each
    column once, one bin per distinct value up to ``_MAX_BINS`` values and
    row-count quantile runs of values beyond, and all stages share the
    bins. Each level of a stage scores its nodes from a histogram of
    residual sums and row counts per (node, column, bin), in runs of nodes
    small enough that it holds no more cells than the level has keys. The
    first largest gain in (column, bin) order wins. A threshold is the
    midpoint between the last left bin's highest value and the lowest
    value of the node's first occupied bin on the right, so on a column
    with at most ``_MAX_BINS`` values it is the exact engine's. A leaf
    holds the mean residual of its rows, and each stage's values on the
    training rows come from its build.
    """

    method = "gbt"
    _fitted = _TABLE + ("init_", "n_features_")

    def __init__(
        self,
        n_stages: int = 50,
        learning_rate: float = 0.1,
        max_depth: int | None = 3,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
    ):
        super().__init__(max_depth, min_samples_split, min_samples_leaf)
        if n_stages < 1:
            raise ConfigurationError("n_stages must be at least 1")
        if not 0 < learning_rate <= 1:
            raise ConfigurationError("learning_rate must be in (0, 1]")
        self.n_stages = n_stages
        self.learning_rate = learning_rate

    def fit(self, X, y) -> "GradientBoosted":
        X, y = self._fit_inputs(X, y)
        self.init_ = float(y.mean())
        current = np.full(len(y), self.init_)
        binned = _bins(X)
        table = _Table(0)
        for _ in range(self.n_stages):
            current = current + self.learning_rate * self._grow_binned(table, *binned, y - current)
        self._store(table)
        return self

    def _grow_binned(self, table: _Table, keys, lo, hi, bins: int, r) -> np.ndarray:
        """Append one tree fitted to the residuals ``r``; return its values on the training rows.

        ``rows`` holds the rows still in the tree and ``node`` the node each
        sits in, in level order; the children of a level's i-th split are
        nodes 2i and 2i + 1 of the next level. The nodes a level searches
        are scored in runs whose histograms hold no more cells than the
        level has keys, so memory stays flat at any depth.
        """
        n, w = keys.shape
        max_depth = math.inf if self.max_depth is None else self.max_depth
        smallest = max(self.min_samples_split, 2 * self.min_samples_leaf)
        rows, node, nodes = np.arange(n), np.zeros(n, dtype=np.intp), 1
        fitted = np.empty(n)
        table.roots.append(table.size)
        depth = 0
        while True:
            c = r.take(rows)
            sizes = np.bincount(node, minlength=nodes)
            value = np.bincount(node, c, nodes) / sizes
            mean = value.take(node)
            fitted[rows] = mean  # a split's children overwrite its rows
            feature = np.full(nodes, -1)
            threshold, cut = np.full(nodes, math.nan), np.zeros(nodes, dtype=np.intp)
            if depth < max_depth and w:
                # Residuals less their node's mean: the gains are the same, and
                # the cumulative sums of a node stay near 0.
                c -= mean
                scored = (sizes >= smallest) & (np.bincount(node, c * c, nodes) > _MIN_GAIN)
                searched = scored.nonzero()[0]
                local = (scored.cumsum() - 1).take(node)
                scan = scored.take(node)
                step = max(1, int(scan.sum()) // bins)
                for a in range(0, len(searched), step):
                    if step < len(searched):
                        part = scan & (local >= a) & (local < a + step)
                    else:
                        part = scan
                    split, key, t = _binned_splits(
                        keys, rows.compress(part), lo, hi, bins,
                        local.compress(part) - a, c.compress(part),
                        min(step, len(searched) - a), self.min_samples_leaf,
                    )
                    split = searched[a + split]
                    feature[split], cut[split], threshold[split] = key // bins, key, t
            is_split = feature >= 0
            value[is_split] = 0.0
            before = table.add(feature, threshold, value)
            if not is_split.any():
                return fitted
            depth += 1
            keep = is_split.take(node)
            rows, node = rows.compress(keep), node.compress(keep)
            right = keys.ravel().take(rows * w + feature.take(node)) > cut.take(node)
            node = 2 * before.take(node) + right
            nodes = 2 * int(is_split.sum())

    def predict(self, X) -> np.ndarray:
        return self._apply(self._inputs(X), self._stage_sum)

    def _stage_sum(self, values: np.ndarray) -> np.ndarray:
        """init, then each stage's step added in stage order, as in fit."""
        steps = np.empty((len(values) + 1, values.shape[1]))
        steps[0] = self.init_
        np.multiply(self.learning_rate, values, out=steps[1:])
        return np.cumsum(steps, axis=0, out=steps)[-1]
