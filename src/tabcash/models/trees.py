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
"""

from __future__ import annotations

import math

import numpy as np

from ..base import as_float_vector, check_fitted, check_matching_width
from ..errors import ConfigurationError
from .simple import Model, _resolve_n_classes

_MIN_GAIN = 1e-12
_BLOCK = 1 << 12


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


class _TreeBuilder:
    """Grows one tree on fixed ``X``, ``y`` from their presorted column orders.

    A node is its rows (ascending) and the ``(w, n)`` orders of those rows
    per column. When ``fitted`` is given, every leaf writes its value to
    the training rows it holds, which equals the tree's prediction on them.
    """

    def __init__(self, X, y, n_classes: int, max_depth, min_split: int, min_leaf: int,
                 feature_sample: int | None = None, rng=None, fitted=None):
        self.X = X
        self.y = y
        self.n_classes = n_classes
        self.max_depth = math.inf if max_depth is None else max_depth
        self.min_split = min_split
        self.min_leaf = min_leaf
        self.feature_sample = feature_sample
        self.rng = rng
        self.fitted = fitted
        self.goes_left = np.zeros(len(y), dtype=bool)

    def build(self, order: np.ndarray, rows: np.ndarray, depth: int = 0) -> dict:
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
        return {
            "feature": j,
            "threshold": threshold,
            "left": self.build(orders.pop(), left, depth + 1),
            "right": self.build(orders.pop(), right, depth + 1),
        }

    def _leaf(self, rows: np.ndarray, y: np.ndarray) -> dict:
        payload = _leaf_payload(y, self.n_classes)
        if self.fitted is not None:
            self.fitted[rows] = payload
        return {"leaf": payload}

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
                lo, hi = xs[i, pos[i]], xs[i, pos[i] + 1]
                threshold = 0.5 * (lo + hi)
                if not threshold < hi:
                    # Adjacent floats: the midpoint rounds up and would send every row left.
                    threshold = lo
                best = (float(low[i]), int(block[i]), float(threshold))
        return best


def _tree_apply(node: dict, X: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
    if len(rows) == 0:
        return
    if "leaf" in node:
        out[rows] = node["leaf"]
        return
    go_left = X[rows, node["feature"]] <= node["threshold"]
    _tree_apply(node["left"], X, out, rows[go_left])
    _tree_apply(node["right"], X, out, rows[~go_left])


def _tree_predict(node: dict, X: np.ndarray, n_classes: int) -> np.ndarray:
    rows = np.arange(len(X))
    if n_classes:
        out = np.empty((len(X), n_classes))
    else:
        out = np.empty(len(X))
    _tree_apply(node, X, out, rows)
    return out


class Cart(Model):
    """Greedy binary decision tree; probabilities are leaf class frequencies."""

    method = "cart"
    _fitted = ("tree_", "n_classes_", "n_features_")

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
        self.tree_: dict | None = None

    @property
    def is_classifier(self) -> bool:
        return self.task == "classification"

    def fit(self, X, y, n_classes: int | None = None) -> "Cart":
        X, y = self._check_fit_inputs(X, y)
        if self.task == "classification":
            y = y.astype(int)
            return self._grow(X, y, _resolve_n_classes(y, n_classes))
        return self._grow(X, as_float_vector(y), 0)

    def _grow(self, X, y, n_classes: int, order=None, rng=None, feature_sample=None,
              fitted=None) -> "Cart":
        """Fit on checked inputs; ``order`` is ``_presort(X)`` when the caller has it."""
        builder = _TreeBuilder(
            X,
            y,
            n_classes,
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            feature_sample,
            rng,
            fitted,
        )
        self.tree_ = builder.build(_presort(X) if order is None else order, np.arange(len(y)))
        self.n_classes_ = n_classes
        self.n_features_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "tree_")
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        if self.task == "classification":
            return np.argmax(self.predict_proba(X), axis=1)
        return _tree_predict(self.tree_, X, 0)

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "tree_")
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        return _tree_predict(self.tree_, X, self.n_classes_)


class RandomForest(Model):
    """Bootstrap ensemble of CARTs with per-split feature subsampling.

    Tree t draws from a generator seeded with ``seed + t``. With
    ``bootstrap=False``, ``feature_subsample=False`` and ``n_trees=1`` the
    forest reproduces a single CART exactly.
    """

    method = "random_forest"
    _fitted = ("trees_", "n_classes_", "n_features_")

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
        self.trees_: list[Cart] | None = None

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
        w = X.shape[1]
        per_split = max(1, math.ceil(math.sqrt(w))) if self.feature_subsample else None
        self.trees_ = []
        for t in range(self.n_trees):
            rng = np.random.default_rng(self.seed + t)
            rows = rng.integers(0, len(X), len(X)) if self.bootstrap else np.arange(len(X))
            tree = Cart(
                task=self.task,
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
            )
            tree._grow(X[rows], y[rows], self.n_classes_, rng=rng, feature_sample=per_split)
            self.trees_.append(tree)
        self.n_features_ = w
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "trees_")
        if self.task == "classification":
            return np.argmax(self.predict_proba(X), axis=1)
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        return np.mean([t.predict(X) for t in self.trees_], axis=0)

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "trees_")
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        return np.mean([t.predict_proba(X) for t in self.trees_], axis=0)


class GradientBoosted(Model):
    """Stagewise regression trees on residuals, initialized at the mean.

    Prediction is mean + learning_rate * sum of stage trees, so with one
    stage and unit learning rate the model is exactly mean plus one CART
    fitted on centered residuals. All stages share one presort of ``X``, and
    each stage's values on the training rows come from its build.
    """

    method = "gbt"
    _fitted = ("trees_", "init_", "n_features_")

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
        self.trees_: list[Cart] | None = None

    def fit(self, X, y) -> "GradientBoosted":
        X, y = self._check_fit_inputs(X, y)
        y = as_float_vector(y)
        self.init_ = float(y.mean())
        current = np.full(len(y), self.init_)
        order = _presort(X)
        fitted = np.empty(len(y))
        self.trees_ = []
        for _ in range(self.n_stages):
            tree = Cart(
                task="regression",
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
            )
            tree._grow(X, y - current, 0, order=order, fitted=fitted)
            current = current + self.learning_rate * fitted
            self.trees_.append(tree)
        self.n_features_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "trees_")
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        out = np.full(len(X), self.init_)
        for tree in self.trees_:
            out += self.learning_rate * tree.predict(X)
        return out
