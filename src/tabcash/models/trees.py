"""Tree family: CART, bootstrap forests, and stagewise boosted trees.

Split search is exhaustive over midpoints between consecutive distinct
feature values, minimizing summed squared error (regression) or summed
Gini impurity (classification). Ties keep the first candidate found, so
trees are deterministic for a fixed feature order.
"""

from __future__ import annotations

import math

import numpy as np

from ..base import as_float_vector, check_fitted, check_matching_width
from ..errors import ConfigurationError
from .simple import Model, _resolve_n_classes

_MIN_GAIN = 1e-12


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


def _best_split_feature(x: np.ndarray, y: np.ndarray, n_classes: int, min_leaf: int):
    """Best (cost, threshold) for one feature, or None if unsplittable."""
    order = np.argsort(x, kind="mergesort")
    xs = x[order]
    ys = y[order]
    n = len(xs)
    splittable = xs[:-1] != xs[1:]
    if min_leaf > 1:
        valid = np.zeros(n - 1, dtype=bool)
        valid[min_leaf - 1 : n - min_leaf] = True
        splittable &= valid
    if not splittable.any():
        return None
    left_n = np.arange(1, n, dtype=float)
    right_n = n - left_n
    if n_classes:
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys.astype(int)] = 1.0
        cum = np.cumsum(onehot, axis=0)[:-1]
        left_sq = (cum * cum).sum(axis=1)
        total = np.bincount(ys.astype(int), minlength=n_classes).astype(float)
        right = total[None, :] - cum
        right_sq = (right * right).sum(axis=1)
        cost = (left_n - left_sq / left_n) + (right_n - right_sq / right_n)
    else:
        cs = np.cumsum(ys)[:-1]
        cs2 = np.cumsum(ys * ys)[:-1]
        total_s = float(ys.sum())
        total_s2 = float((ys * ys).sum())
        cost = (cs2 - cs * cs / left_n) + (
            (total_s2 - cs2) - (total_s - cs) ** 2 / right_n
        )
    cost = np.where(splittable, cost, np.inf)
    pos = int(np.argmin(cost))
    if not np.isfinite(cost[pos]):
        return None
    threshold = 0.5 * (xs[pos] + xs[pos + 1])
    if not threshold < xs[pos + 1]:
        # Adjacent floats: the midpoint rounds up and would send every row left.
        threshold = xs[pos]
    return float(cost[pos]), float(threshold)


class _TreeBuilder:
    def __init__(self, task_classes: int, max_depth, min_split: int, min_leaf: int,
                 feature_sample: int | None, rng):
        self.n_classes = task_classes
        self.max_depth = math.inf if max_depth is None else max_depth
        self.min_split = min_split
        self.min_leaf = min_leaf
        self.feature_sample = feature_sample
        self.rng = rng

    def build(self, X: np.ndarray, y: np.ndarray, depth: int = 0) -> dict:
        n, w = X.shape
        parent_cost = _node_cost(y, self.n_classes)
        if (
            depth >= self.max_depth
            or n < self.min_split
            or n < 2 * self.min_leaf
            or parent_cost <= _MIN_GAIN
        ):
            return {"leaf": _leaf_payload(y, self.n_classes)}
        if self.feature_sample is not None and self.feature_sample < w:
            features = np.sort(self.rng.choice(w, self.feature_sample, replace=False))
        else:
            features = np.arange(w)
        best = None
        for j in features:
            found = _best_split_feature(X[:, j], y, self.n_classes, self.min_leaf)
            if found is None:
                continue
            cost, threshold = found
            if best is None or cost < best[0]:
                best = (cost, int(j), threshold)
        if best is None or parent_cost - best[0] <= _MIN_GAIN:
            return {"leaf": _leaf_payload(y, self.n_classes)}
        _, j, threshold = best
        go_left = X[:, j] <= threshold
        return {
            "feature": j,
            "threshold": threshold,
            "left": self.build(X[go_left], y[go_left], depth + 1),
            "right": self.build(X[~go_left], y[~go_left], depth + 1),
        }


def _tree_apply(node: dict, X: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
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

    def fit(self, X, y, n_classes: int | None = None, _rng=None, _feature_sample=None) -> "Cart":
        X, y = self._check_fit_inputs(X, y)
        if self.task == "classification":
            y = y.astype(int)
            self.n_classes_ = _resolve_n_classes(y, n_classes)
        else:
            y = as_float_vector(y)
            self.n_classes_ = 0
        builder = _TreeBuilder(
            self.n_classes_,
            self.max_depth,
            self.min_samples_split,
            self.min_samples_leaf,
            _feature_sample,
            _rng,
        )
        self.tree_ = builder.build(X, y)
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
            tree.fit(
                X[rows],
                y[rows],
                n_classes=self.n_classes_ or None,
                _rng=rng,
                _feature_sample=per_split,
            )
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
    fitted on centered residuals.
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
        self.trees_ = []
        for _ in range(self.n_stages):
            residual = y - current
            tree = Cart(
                task="regression",
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
            )
            tree.fit(X, residual)
            current = current + self.learning_rate * tree.predict(X)
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
