"""Tree family: CART, bootstrap forests, and stagewise boosted trees.

Split search is exact: every candidate feature is scanned over the
midpoints between consecutive distinct values, minimizing summed squared
error (regression) or summed Gini impurity (classification). The split
rule is fixed down to its ties:

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
``min_samples_leaf`` rows per side) is skipped. The candidate features of
a node are scored together, in blocks of at most ``_BLOCK`` sorted values
(one feature per block on large nodes) so memory stays flat; the rule
above makes the tree independent of the blocking.

A fitted model keeps all its trees in one node table of parallel arrays,
one entry per node: ``feature_``, ``threshold_``, ``left_``, ``right_``
and ``value_`` (``(nodes,)`` for regression, ``(nodes, n_classes)`` for
classification), plus ``roots_``, the root of each tree. Each tree's
nodes are stored in preorder. A row at a split goes left when
``X[row, feature] <= threshold``. A leaf has feature -1, threshold NaN
and both children pointing to itself, so ``_walk`` can move every tree
and every row at once, one level per step, for as many steps as the
deepest tree has levels: a row that reaches a leaf early stays on it.
A split's value is zero and never read. Rows are walked in blocks of
about ``_WALK`` (tree, row) pairs, so memory stays flat.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import as_float_vector, check_fitted, check_matching_width
from ..errors import ConfigurationError
from .simple import Model, _resolve_n_classes

_MIN_GAIN = 1e-12
_BLOCK = 1 << 12
_WALK = 1 << 16  # (tree, row) pairs walked at once


def _leaf_payload(y: np.ndarray, n_classes: int):
    if n_classes:
        counts = np.bincount(y.astype(int), minlength=n_classes).astype(float)
        return (counts / counts.sum()).tolist()
    return float(y.mean())


def _node_cost(y: np.ndarray, n_classes: int) -> float:
    n = len(y)
    if n_classes:
        counts = np.bincount(y.astype(int), minlength=n_classes).astype(float)
        return n - float((counts * counts).sum()) / n
    s = float(y.sum())
    return float((y * y).sum()) - s * s / n


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


def _split_costs(xs: np.ndarray, ys: np.ndarray, n_classes: int, min_leaf: int) -> np.ndarray:
    """Cost of a split after each position of each sorted row; inf where none is allowed."""
    n = xs.shape[1]
    left_n = np.arange(1, n, dtype=float)
    right_n = n - left_n
    if n_classes:
        left_sq = np.zeros((len(xs), n - 1))
        right_sq = np.zeros_like(left_sq)
        for c in range(n_classes):
            cum = np.cumsum(ys == c, axis=1)
            right = cum[:, -1:] - cum[:, :-1]
            cum = cum[:, :-1]
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
        total_s = ys.sum(axis=1)[:, None]
        total_s2 = sq.sum(axis=1)[:, None]
        cs = np.cumsum(ys, axis=1)[:, :-1]
        cs2 = np.cumsum(sq, axis=1)[:, :-1]
        cost = np.multiply(cs, cs, out=sq[:, :-1])
        cost /= left_n
        np.subtract(cs2, cost, out=cost)
        np.subtract(total_s, cs, out=cs)
        cs *= cs
        cs /= right_n
        np.subtract(total_s2, cs2, out=cs2)
        cs2 -= cs
        cost += cs2
    np.copyto(cost, np.inf, where=xs[:, :-1] == xs[:, 1:])
    if min_leaf > 1:
        cost[:, : min_leaf - 1] = np.inf
        cost[:, n - min_leaf :] = np.inf
    return cost


class _Table:
    """Nodes of one or more trees while they grow, appended in preorder."""

    def __init__(self, n_classes: int):
        self.n_classes = n_classes
        self.blank = [0.0] * n_classes if n_classes else 0.0
        self.feature, self.threshold, self.left, self.right, self.value = [], [], [], [], []
        self.roots = []

    def add(self, value, feature: int = -1, threshold: float = math.nan) -> int:
        """Append a node whose children are itself (a leaf until they are set)."""
        node = len(self.feature)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(node)
        self.right.append(node)
        self.value.append(value)
        return node


class _TreeBuilder:
    """Grows one tree on fixed ``X``, ``y`` from their presorted column orders.

    A node is its rows (ascending) and the ``(w, n)`` orders of those rows
    per column; ``build`` appends the tree to ``table``. When ``fitted`` is
    given, every leaf writes its value to the training rows it holds, which
    equals the tree's prediction on them.
    """

    def __init__(self, X, y, table: _Table, max_depth, min_split: int, min_leaf: int,
                 feature_sample: int | None = None, rng=None, fitted=None):
        self.X = X
        self.y = y
        self.table = table
        self.n_classes = table.n_classes
        self.max_depth = math.inf if max_depth is None else max_depth
        self.min_split = min_split
        self.min_leaf = min_leaf
        self.feature_sample = feature_sample
        self.rng = rng
        self.fitted = fitted
        self.goes_left = np.zeros(len(y), dtype=bool)

    def build(self, order: np.ndarray, rows: np.ndarray, depth: int = 0) -> int:
        """Append the subtree of ``rows`` to the table; the index of its root."""
        w, n = order.shape
        y = self.y[rows]
        parent_cost = _node_cost(y, self.n_classes)
        if (
            depth >= self.max_depth
            or n < self.min_split
            or n < 2 * self.min_leaf
            or parent_cost <= _MIN_GAIN
        ):
            return self._leaf(rows, y)
        if self.feature_sample is not None and self.feature_sample < w:
            features = np.sort(self.rng.choice(w, self.feature_sample, replace=False))
        else:
            features = np.arange(w)
        best = self._best_split(order, features)
        if best is None or parent_cost - best[0] <= _MIN_GAIN:
            return self._leaf(rows, y)
        _, j, threshold = best
        go_left = self.X[rows, j] <= threshold
        left, right = rows[go_left], rows[~go_left]
        self.goes_left[left] = True
        in_left = self.goes_left[order]
        self.goes_left[left] = False
        # Each child's frame holds the only reference to its orders and drops
        # it once split, so the orders alive along a path cover disjoint rows.
        orders = [order[~in_left].reshape(w, len(right)), order[in_left].reshape(w, len(left))]
        del order, in_left
        node = self.table.add(self.table.blank, j, threshold)
        self.table.left[node] = self.build(orders.pop(), left, depth + 1)
        self.table.right[node] = self.build(orders.pop(), right, depth + 1)
        return node

    def _leaf(self, rows: np.ndarray, y: np.ndarray) -> int:
        payload = _leaf_payload(y, self.n_classes)
        if self.fitted is not None:
            self.fitted[rows] = payload
        return self.table.add(payload)

    def _best_split(self, order: np.ndarray, features: np.ndarray):
        """(cost, feature, threshold) of the node's best split, or None if none is allowed."""
        best = None
        step = max(1, _BLOCK // order.shape[1])
        for start in range(0, len(features), step):
            block = features[start : start + step]
            o = order[block]
            xs = self.X[o, block[:, None]]
            cost = _split_costs(xs, self.y[o], self.n_classes, self.min_leaf)
            pos = np.argmin(cost, axis=1)
            low = cost[np.arange(len(block)), pos]
            low[~np.isfinite(low)] = np.inf
            i = int(np.argmin(low))
            if low[i] < (best[0] if best else np.inf):
                # Python floats: -inf + inf and overflow give NaN and inf without a warning.
                lo, hi = float(xs[i, pos[i]]), float(xs[i, pos[i] + 1])
                threshold = 0.5 * (lo + hi)
                if not threshold < hi:
                    # Adjacent floats, an overflow or -inf and inf: the midpoint
                    # is not below hi and would send every row left.
                    threshold = lo
                best = (float(low[i]), int(block[i]), threshold)
        return best


_TABLE = ("roots_", "feature_", "threshold_", "left_", "right_", "value_")


class _TreeModel(Model):
    """A model whose fitted trees are one node table (see the module docstring)."""

    def _grow(self, table: _Table, X, y, order, rng=None, feature_sample=None,
              fitted=None) -> None:
        """Append one tree fitted on checked inputs; ``order`` is the presort of ``X``."""
        builder = _TreeBuilder(
            X,
            y,
            table,
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            feature_sample,
            rng,
            fitted,
        )
        table.roots.append(builder.build(order, np.arange(len(y))))

    def _store(self, table: _Table) -> None:
        self.roots_ = np.array(table.roots, dtype=np.int32)
        self.feature_ = np.array(table.feature, dtype=np.int32)
        self.threshold_ = np.array(table.threshold)
        self.left_ = np.array(table.left, dtype=np.int32)
        self.right_ = np.array(table.right, dtype=np.int32)
        self.value_ = np.array(table.value)
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
        """``reduce`` of the leaf values of every tree, one block of rows at a time.

        ``reduce`` maps the ``(trees, rows)`` or ``(trees, rows, k)`` leaf
        values of a block to one result per row. A block has two rows or
        more unless ``X`` has one: numpy sums the ``(trees, 1)`` values of a
        lone row pairwise, and those of a block in tree order, and a row's
        result must not depend on how ``X`` is cut.
        """
        check_fitted(self, "roots_")
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        step = max(2, _WALK // len(self.roots_))
        parts, start = [], 0
        for stop in [*range(step, len(X) - 1, step), len(X)]:
            parts.append(reduce(self._walk(X[start:stop])))
            start = stop
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
    return values.mean(axis=0)


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
        if task not in ("regression", "classification"):
            raise ConfigurationError(f"unknown task {task!r}")
        if min_samples_split < 2 or min_samples_leaf < 1:
            raise ConfigurationError("invalid split/leaf minimums")
        if max_depth is not None and max_depth < 0:
            raise ConfigurationError("max_depth must be nonnegative")
        self.task = task
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.roots_: np.ndarray | None = None

    @property
    def is_classifier(self) -> bool:
        return self.task == "classification"

    def fit(self, X, y, n_classes: int | None = None) -> "Cart":
        X, y = self._check_fit_inputs(X, y)
        if self.task == "classification":
            y = y.astype(int)
            self.n_classes_ = _resolve_n_classes(y, n_classes)
        else:
            y = as_float_vector(y)
            self.n_classes_ = 0
        table = _Table(self.n_classes_)
        self._grow(table, X, y, _presort(X))
        self.n_features_ = X.shape[1]
        self._store(table)
        return self

    def predict(self, X) -> np.ndarray:
        if self.task == "classification":
            return np.argmax(self.predict_proba(X), axis=1)
        return self._apply(X, _only_tree)

    def predict_proba(self, X) -> np.ndarray:
        return self._apply(X, _only_tree)


class RandomForest(_TreeModel):
    """Bootstrap ensemble of CARTs with per-split feature subsampling.

    Tree t draws from a generator seeded with ``seed + t``. With
    ``bootstrap=False``, ``feature_subsample=False`` and ``n_trees=1`` the
    forest reproduces a single CART exactly.
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
        if task not in ("regression", "classification"):
            raise ConfigurationError(f"unknown task {task!r}")
        if n_trees < 1:
            raise ConfigurationError("n_trees must be at least 1")
        self.task = task
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.bootstrap = bootstrap
        self.feature_subsample = feature_subsample
        self.seed = seed
        self.roots_: np.ndarray | None = None

    @property
    def is_classifier(self) -> bool:
        return self.task == "classification"

    def fit(self, X, y, n_classes: int | None = None) -> "RandomForest":
        X, y = self._check_fit_inputs(X, y)
        if self.task == "classification":
            y = y.astype(int)
            self.n_classes_ = _resolve_n_classes(y, n_classes)
        else:
            y = as_float_vector(y)
            self.n_classes_ = 0
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
            self._grow(table, X[rows], y[rows], order, rng, per_split)
        self.n_features_ = w
        self._store(table)
        return self

    def predict(self, X) -> np.ndarray:
        if self.task == "classification":
            return np.argmax(self.predict_proba(X), axis=1)
        return self._apply(X, _tree_mean)

    def predict_proba(self, X) -> np.ndarray:
        return self._apply(X, _tree_mean)


class GradientBoosted(_TreeModel):
    """Stagewise regression trees on residuals, initialized at the mean.

    Prediction is mean + learning_rate * sum of stage trees, so with one
    stage and unit learning rate the model is exactly mean plus one CART
    fitted on centered residuals. All stages share one presort of ``X``, and
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
        if n_stages < 1:
            raise ConfigurationError("n_stages must be at least 1")
        if not 0 < learning_rate <= 1:
            raise ConfigurationError("learning_rate must be in (0, 1]")
        self.n_stages = n_stages
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.roots_: np.ndarray | None = None

    def fit(self, X, y) -> "GradientBoosted":
        X, y = self._check_fit_inputs(X, y)
        y = as_float_vector(y)
        self.init_ = float(y.mean())
        current = np.full(len(y), self.init_)
        order = _presort(X)
        fitted = np.empty(len(y))
        table = _Table(0)
        for _ in range(self.n_stages):
            self._grow(table, X, y - current, order, fitted=fitted)
            current = current + self.learning_rate * fitted
        self.n_features_ = X.shape[1]
        self._store(table)
        return self

    def predict(self, X) -> np.ndarray:
        return self._apply(X, self._stage_sum)

    def _stage_sum(self, values: np.ndarray) -> np.ndarray:
        """init, then each stage's step added in stage order, as in fit."""
        steps = np.empty((len(values) + 1, values.shape[1]))
        steps[0] = self.init_
        np.multiply(self.learning_rate, values, out=steps[1:])
        return np.cumsum(steps, axis=0, out=steps)[-1]
