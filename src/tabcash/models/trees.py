"""Tree family: CART, bootstrap forests, and stagewise boosted trees.

All three grow their trees with one grower, one level at a time (breadth
first, as in SLIQ), on binned columns, as LightGBM does (Ke et al.,
NeurIPS 2017). ``fit`` bins every column once, and all trees of the fit
share the bins:

- a column with at most ``_MAX_BINS`` (255) distinct values gets one bin
  per value; a wider one gets runs of consecutive distinct values, cut
  where a row-count quantile falls, at most ``_MAX_BINS`` of them;
- each row of a tree has a weight: 1 in CART and boosting, and in a
  forest tree its draw count in the bootstrap sample;
- each level scores the nodes it searches from ``bincount`` histograms
  over (node, column, bin) keys and cumulative sums along the bins. For
  regression they hold the weights and the weighted targets less their
  node's mean; for classification, the weights of each class, with the
  class as one more key. Nodes are scored in runs whose histograms hold
  at most ``_CELLS`` (2^14) cells, so memory stays flat at any depth;
- a node is searched when it lies above ``max_depth``, weighs at least
  ``min_samples_split`` and twice ``min_samples_leaf``, and its impurity
  (squared error, or Gini impurity n - sum_k n_k^2/n) exceeds
  ``_MIN_GAIN``;
- the gain of a split is the drop in impurity, sum_k (SL_k^2/nL +
  SR_k^2/nR - S_k^2/n) over the classes, or over the one target sum of
  a regression, with sides weighing at least ``min_samples_leaf``; the
  first largest gain in (column, bin) order wins, and a node splits when
  it exceeds ``_MIN_GAIN``;
- the threshold is the midpoint between the highest training value of
  the last left bin and the lowest of the node's first occupied bin on
  the right (or that highest value, where the midpoint is not below the
  lowest). On a column with at most 255 distinct values the candidate
  splits and thresholds are therefore those of an exact search over
  midpoints; sums rounded in another order can still break a near tie
  the other way;
- a leaf holds its rows' weighted mean, or weighted class frequencies.

CART and boosting scan every column. Forest tree t draws from its own
generator, ``default_rng(seed + t)``. Its bootstrap draw ``rng.integers(0,
n, n)`` becomes its distinct rows, each weighted by its draw count, so
the tree is the one grown on the duplicated sample, up to the rounding of
weighted sums: ``min_samples_leaf`` and ``min_samples_split`` count
draws. Then each level that searches a node draws ``rng.random((nodes,
w))``, one row per node of the level in level order (parents in level
order, a left child before its right), and a node's histogram gathers
only the sorted first ⌈√w⌉ columns of its row's stable argsort. No level
derives a child's histogram from its parent's: a child draws other
columns than its parent, and in boosting the subtraction would change
the sums.

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
_CELLS = 1 << 14  # most histogram cells scored at once
_WALK = 1 << 16  # (tree, row) pairs walked at once
_MAX_BINS = 255  # most bins per column


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


def _square_sum(a: np.ndarray) -> np.ndarray:
    """Sum of squares over the first (class) axis, squaring ``a`` in place."""
    np.square(a, out=a)
    return a[0] if len(a) == 1 else a.sum(axis=0)


def _best_bins(keys, weight, stat, nodes: int, bins: int, n_classes: int, min_leaf: int):
    """(node, cell, first right bin) of each split of ``nodes`` nodes with a gain above ``_MIN_GAIN``.

    Row i of ``keys`` holds a row's key in each column its node scans:
    (class, node, column, bin), class first, node-major within a class;
    a node's cell ``c`` is the split after bin ``c % bins`` of its
    ``c // bins``-th column. ``weight`` is each row's weight (None: 1
    each) and ``stat`` its weighted centered target (regression only).
    Bincounts over the keys give every bin's weight and target sum, or
    class weights, in a node, and cumulative sums along the bins give the
    left side of every split. A split is allowed when each side weighs
    ``min_leaf``, and its gain is sum_k SL_k^2/nL + SR_k^2/nR - S_k^2/n.
    An empty side gains exactly 0, so with ``min_leaf`` 1 no split needs
    blocking. The first maximum in cell order wins; an empty bin repeats
    the gain of the bin before it, so the winning bin is an occupied one.
    The first right bin is the node's first occupied bin past the split.
    """
    per_row = keys.shape[1]
    cells = nodes * per_row * bins
    flat = keys.ravel()
    if weight is not None:
        weight = weight.repeat(per_row)
    if n_classes:
        left_s = np.bincount(flat, weight, n_classes * cells).reshape(n_classes, -1, bins)
        left_s = left_s.cumsum(axis=2, dtype=float)
        left_n = left_s.sum(axis=0)
    else:
        left_n = np.bincount(flat, weight, cells).reshape(-1, bins).cumsum(axis=1, dtype=float)
        left_s = np.bincount(flat, stat.repeat(per_row), cells).reshape(1, -1, bins)
        np.cumsum(left_s, axis=2, out=left_s)
    s, n = left_s[:, :, -1:], left_n[:, -1:]
    right_n = n - left_n
    right_s = s - left_s
    parent = _square_sum(s.copy()) / n
    blocked = (left_n < min_leaf) | (right_n < min_leaf) if min_leaf > 1 else None
    # A cut's cumulative weight is at least 1, so the clamp moves no first right bin.
    np.maximum(left_n, 1, out=left_n)
    np.maximum(right_n, 1, out=right_n)
    gain = _square_sum(left_s)
    gain /= left_n
    right = _square_sum(right_s)
    right /= right_n
    gain += right
    gain -= parent
    if blocked is not None:
        np.copyto(gain, -np.inf, where=blocked)
    gain = gain.reshape(nodes, -1)
    cell = gain.argmax(axis=1)
    split = (gain[np.arange(nodes), cell] > _MIN_GAIN).nonzero()[0]
    cell = cell[split]
    # The first bin on the right whose cumulative weight passes the cut's.
    row = left_n.reshape(nodes, -1, bins)[split, cell // bins]
    right_bin = (row <= row[np.arange(len(split)), cell % bins, None]).sum(axis=1)
    return split, cell, right_bin


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

    def _grow(self, table: _Table, binned, y, rows, weight=None, rng=None, per_split=None):
        """Append one tree grown on ``rows`` of a ``_bins`` table; return its values on them.

        ``weight`` holds each row's draw count (None: 1 each). With ``rng``
        and ``per_split`` below the width, each level that searches a node
        draws ``rng.random((nodes, w))`` and a node scans only the sorted
        first ``per_split`` columns of its row's stable argsort. ``node``
        holds each row's node in level order; the children of a level's
        i-th split are nodes 2i and 2i + 1 of the next level. A node's rows
        stay ascending, so every sum adds them in row order, and a level
        with more nodes than one run holds groups them by node, so each run
        is a slice of them. A regression tree returns an (n,) array holding
        each row's leaf value at ``rows``.
        """
        key_of, bins = binned[0], binned[3]
        n, w = key_of.shape
        n_classes = table.n_classes
        drawn = per_split is not None and per_split < w
        width = (per_split if drawn else w) * bins  # cells per node and class
        step = max(1, _CELLS // max(width * max(n_classes, 1), 1))  # nodes per run
        max_depth = math.inf if self.max_depth is None else self.max_depth
        smallest = max(self.min_samples_split, 2 * self.min_samples_leaf)
        node, nodes = np.zeros(len(rows), dtype=np.intp), 1
        fitted = None if n_classes else np.empty(n)
        table.roots.append(table.size)
        depth = 0
        while True:
            stat = y.take(rows)
            sizes = np.bincount(node, weight, nodes)
            if n_classes:
                counts = np.bincount(node * n_classes + stat, weight, nodes * n_classes)
                counts = counts.reshape(nodes, n_classes)
                value = counts / sizes[:, None]
                impurity = sizes - (counts * counts).sum(axis=1) / sizes
            else:
                value = np.bincount(node, stat if weight is None else stat * weight, nodes)
                value /= sizes
                mean = value.take(node)
                fitted[rows] = mean  # a split's children overwrite its rows
            feature = np.full(nodes, -1)
            threshold, cut = np.full(nodes, math.nan), np.zeros(nodes, dtype=np.intp)
            if depth < max_depth and w:
                if not n_classes:
                    # Targets less their node's mean, weighted: the gains are
                    # the same, and the cumulative sums of a node stay near 0.
                    centered = stat - mean
                    stat = centered if weight is None else centered * weight
                    impurity = np.bincount(node, stat * centered, nodes)
                scored = (sizes >= smallest) & (impurity > _MIN_GAIN)
                searched = scored.nonzero()[0]
                if len(searched):
                    cols = None
                    if drawn:
                        # One row per node of the level, in level order. A level
                        # that searches no node ends its tree, so it draws nothing.
                        draws = rng.random((nodes, w))[searched]
                        cols = np.sort(draws.argsort(axis=1, kind="stable")[:, :per_split], axis=1)
                    feature[searched], threshold[searched], cut[searched] = self._split_level(
                        binned, step, rows, node, weight, stat, scored, n_classes, cols
                    )
            is_split = feature >= 0
            value[is_split] = 0.0
            before = table.add(feature, threshold, value)
            if not is_split.any():
                return fitted
            depth += 1
            keep = is_split.take(node)
            rows, node = rows.compress(keep), node.compress(keep)
            right = key_of.take(rows * w + feature.take(node)) > cut.take(node)
            node = 2 * before.take(node) + right
            nodes = 2 * int(is_split.sum())
            if weight is not None:
                weight = weight.compress(keep)
            if nodes > step:  # runs of nodes are slices of rows grouped by node
                order = node.argsort(kind="stable")
                rows, node = rows.take(order), node.take(order)
                if weight is not None:
                    weight = weight.take(order)

    def _split_level(self, binned, step: int, rows, node, weight, stat, scored, n_classes: int,
                     cols):
        """(feature, threshold, cut key) of each ``scored`` node; feature -1 where none splits.

        ``stat`` holds each row's class, or its weighted centered target.
        A node scans the columns of its row of ``cols`` (None: every
        column). The nodes are scored in runs of ``step``, whose histograms
        hold at most ``_CELLS`` cells (one node at least), keyed (class,
        node, column, bin) as ``_best_bins`` reads them. Rows are grouped
        by node when a level has more than one run.
        """
        key_of, lo, hi, bins = binned
        w = key_of.shape[1]
        searched = scored.nonzero()[0]
        width = (w if cols is None else cols.shape[1]) * bins  # cells per node and class
        local = (scored.cumsum() - 1).take(node)
        part = scored.take(node)
        if not part.all():
            rows, local, stat = rows.compress(part), local.compress(part), stat.compress(part)
            if weight is not None:
                weight = weight.compress(part)
        offset = np.arange(len(searched)) % step * width
        if cols is None:
            keys = key_of.take(rows, axis=0)
            keys += offset.take(local)[:, None]
        else:
            keys = key_of.take(rows[:, None] * w + cols.take(local, axis=0))
            keys += (offset[:, None] + np.arange(0, width, bins) - cols * bins).take(local, axis=0)
        feature = np.full(len(searched), -1)
        threshold, cut = np.full(len(searched), math.nan), np.zeros(len(searched), dtype=np.intp)
        ends = [len(rows)]
        if len(searched) > step:
            ends = np.searchsorted(local, np.arange(step, len(searched) + step, step)).tolist()
        for first, i, j in zip(range(0, len(searched), step), [0, *ends[:-1]], ends):
            run = min(step, len(searched) - first)
            run_keys = keys[i:j]
            if n_classes:
                run_keys = run_keys + (stat[i:j] * (run * width))[:, None]
            split, cell, right = _best_bins(
                run_keys, None if weight is None else weight[i:j],
                None if n_classes else stat[i:j], run, bins, n_classes, self.min_samples_leaf,
            )
            column = cell // bins
            if cols is not None:
                column = cols[first + split, column]
            split += first
            start = column * bins
            feature[split], cut[split] = column, start + cell % bins
            threshold[split] = _thresholds(hi.take(cut[split]), lo.take(start + right))
        return feature, threshold, cut

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
        self._grow(table, _bins(X), y, np.arange(len(y)))
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

    Tree t weighs its rows by their bootstrap draw counts, then draws its
    features level by level (see the module docstring), from a generator
    seeded with ``seed + t``. With ``bootstrap=False``,
    ``feature_subsample=False`` and ``n_trees=1`` the forest reproduces a
    single CART exactly.
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
        binned = _bins(X)
        table = _Table(self.n_classes_)
        for t in range(self.n_trees):
            rng = np.random.default_rng(self.seed + t)
            if self.bootstrap:
                # The sample's distinct rows, each weighted by its draw count.
                drawn = np.bincount(rng.integers(0, n, n), minlength=n)
                rows = drawn.nonzero()[0]
                self._grow(table, binned, y, rows, drawn[rows].astype(float), rng, per_split)
            else:
                self._grow(table, binned, y, np.arange(n), None, rng, per_split)
        self._store(table)
        return self

    def predict(self, X) -> np.ndarray:
        if self.is_classifier:
            return np.argmax(self.predict_proba(X), axis=1)
        return self._apply(self._inputs(X), _tree_mean)

    def predict_proba(self, X) -> np.ndarray:
        return self._apply(self._inputs(X, proba=True), _tree_mean)


class GradientBoosted(_TreeModel):
    """Stagewise regression trees on residuals, initialized at the mean.

    Prediction is mean + learning_rate * sum of stage trees. All stages
    share the bins of one ``_bins`` call and scan every column (see the
    module docstring). A leaf holds the mean residual of its rows, and
    each stage's values on the training rows come from its build.
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
        binned, rows = _bins(X), np.arange(len(y))
        table = _Table(0)
        for _ in range(self.n_stages):
            current = current + self.learning_rate * self._grow(table, binned, y - current, rows)
        self._store(table)
        return self

    def predict(self, X) -> np.ndarray:
        return self._apply(self._inputs(X), self._stage_sum)

    def _stage_sum(self, values: np.ndarray) -> np.ndarray:
        """init, then each stage's step added in stage order, as in fit."""
        steps = np.empty((len(values) + 1, values.shape[1]))
        steps[0] = self.init_
        np.multiply(self.learning_rate, values, out=steps[1:])
        return np.cumsum(steps, axis=0, out=steps)[-1]
