"""The presorted tree engine against a per-node, per-feature oracle.

The oracle is the earlier split search: every node sorts each feature of
its own rows with a stable sort and scans one feature at a time, and
builds nested dicts. Each fitted tree is rebuilt as nested dicts from the
model's node table, and trees are compared as JSON, so a threshold, a leaf
value or a key order that moves by one bit shows up. The flat,
level-by-level predict is checked against a recursive walk of those dicts.
"""

import json
import math

import numpy as np
import pytest

from tabcash.models import Cart, GradientBoosted, RandomForest, trees
from tabcash.models.trees import (
    _MIN_GAIN,
    _dense_ranks,
    _leaf_payload,
    _node_cost,
    _presort,
    _Table,
)


def oracle_split_feature(x, y, n_classes, min_leaf):
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
        cost = (cs2 - cs * cs / left_n) + ((total_s2 - cs2) - (total_s - cs) ** 2 / right_n)
    cost = np.where(splittable, cost, np.inf)
    pos = int(np.argmin(cost))
    if not np.isfinite(cost[pos]):
        return None
    lo, hi = float(xs[pos]), float(xs[pos + 1])
    threshold = 0.5 * (lo + hi)
    if not threshold < hi:
        threshold = lo
    return float(cost[pos]), float(threshold)


class OracleBuilder:
    def __init__(self, n_classes, max_depth, min_split, min_leaf, feature_sample=None, rng=None):
        self.n_classes = n_classes
        self.max_depth = math.inf if max_depth is None else max_depth
        self.min_split = min_split
        self.min_leaf = min_leaf
        self.feature_sample = feature_sample
        self.rng = rng

    def build(self, X, y, depth=0):
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
            found = oracle_split_feature(X[:, j], y, self.n_classes, self.min_leaf)
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


def oracle_predict(node, X):
    """Leaf payload of each row by a recursive walk: ``(rows,)`` or ``(rows, k)``."""
    out = []
    for x in X:
        at = node
        while "leaf" not in at:
            at = at["left"] if x[at["feature"]] <= at["threshold"] else at["right"]
        out.append(at["leaf"])
    return np.array(out, dtype=float)


def nested(model, t=0):
    """Tree ``t`` of a fitted model's node table as the oracle's nested dicts."""

    def node(i):
        if model.left_[i] == i:
            assert model.right_[i] == i and model.feature_[i] == -1
            value = model.value_[i]
            return {"leaf": value.tolist() if value.ndim else float(value)}
        assert model.left_[i] == i + 1, "preorder: the left child follows its parent"
        return {
            "feature": int(model.feature_[i]),
            "threshold": float(model.threshold_[i]),
            "left": node(model.left_[i]),
            "right": node(model.right_[i]),
        }

    return node(int(model.roots_[t]))


def as_json(tree):
    return json.dumps(tree)


# Feature tables, all with exact ties somewhere.


def grid_X(rng, n):
    """Integer grid 0..3: every column is mostly ties."""
    return rng.integers(0, 4, (n, 4)).astype(float)


def onehot_X(rng, n):
    """A 2-level and a 3-level one-hot block, plus a mean-imputed column.

    The 2-level block is a mirrored pair: both columns give the same
    partition, so their costs tie up to the order of the sums.
    """
    two = rng.integers(0, 2, n)
    three = rng.integers(0, 3, n)
    imputed = rng.normal(size=n)
    imputed[rng.uniform(size=n) < 0.4] = np.nan
    imputed[np.isnan(imputed)] = np.nanmean(imputed)
    return np.column_stack(
        [two == 0, two == 1, three == 0, three == 1, three == 2, imputed]
    ).astype(float)


def adjacent_X(rng, n):
    """Columns whose values are adjacent floats, so midpoints round."""
    a = np.nextafter(1.0, 2)
    values = np.array([1.0, a, np.nextafter(a, 2)])
    return np.column_stack([values[rng.integers(0, 3, n)], rng.normal(size=n)])


def continuous_X(rng, n):
    return rng.normal(size=(n, 5))


TABLES = {"grid": grid_X, "onehot": onehot_X, "adjacent": adjacent_X, "continuous": continuous_X}


def response(rng, kind, X):
    n = len(X)
    if kind == "poisson":
        return rng.poisson(np.exp(0.4 * X[:, 0] - 0.3 * X[:, -1])).astype(float)
    if kind == "residual":
        return X[:, 0] - 0.7 * X[:, -1] + rng.normal(size=n) / 3
    if kind == "binary":
        return (X[:, 0] + rng.normal(size=n) > X[:, 0].mean()).astype(int)
    return rng.integers(0, 3, n)  # 3 classes, little signal: deep, tie-heavy trees


def case(table, kind, seed, n=160):
    rng = np.random.default_rng(seed)
    X = TABLES[table](rng, n)
    return X, response(rng, kind, X)


def oracle_cart(X, y, n_classes, max_depth=None, min_split=2, min_leaf=1):
    return OracleBuilder(n_classes, max_depth, min_split, min_leaf).build(X, y)


CART_PARAMS = [
    {},
    {"max_depth": 3},
    {"min_samples_leaf": 3},
    {"min_samples_leaf": 10, "min_samples_split": 25},
    {"min_samples_split": 7, "max_depth": 6},
]


@pytest.mark.parametrize("params", CART_PARAMS)
@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("kind", ["poisson", "residual"])
def test_regression_cart_matches_oracle(kind, table, params):
    for seed in range(3):
        X, y = case(table, kind, seed)
        got = nested(Cart("regression", **params).fit(X, y))
        want = oracle_cart(
            X, y, 0, params.get("max_depth"), params.get("min_samples_split", 2),
            params.get("min_samples_leaf", 1),
        )
        assert as_json(got) == as_json(want)


@pytest.mark.parametrize("params", CART_PARAMS)
@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("kind", ["binary", "three"])
def test_classification_cart_matches_oracle(kind, table, params):
    for seed in range(3):
        X, y = case(table, kind, seed)
        k = 3 if kind == "three" else 2
        got = nested(Cart("classification", **params).fit(X, y, n_classes=k))
        want = oracle_cart(
            X, y, k, params.get("max_depth"), params.get("min_samples_split", 2),
            params.get("min_samples_leaf", 1),
        )
        assert as_json(got) == as_json(want)


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("kind", ["poisson", "residual", "three"])
@pytest.mark.parametrize("min_leaf", [1, 4])
def test_forest_trees_match_oracle(kind, table, min_leaf):
    X, y = case(table, kind, 5)
    task, k = ("classification", 3) if kind == "three" else ("regression", 0)
    forest = RandomForest(task, n_trees=4, min_samples_leaf=min_leaf, seed=11)
    forest.fit(X, y, n_classes=k or None)
    per_split = math.ceil(math.sqrt(X.shape[1]))
    assert len(forest.roots_) == 4
    for t in range(4):
        rng = np.random.default_rng(11 + t)
        rows = rng.integers(0, len(X), len(X))
        builder = OracleBuilder(k, None, 2, min_leaf, per_split, rng)
        assert as_json(nested(forest, t)) == as_json(builder.build(X[rows], y[rows]))


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("kind", ["poisson", "residual"])
@pytest.mark.parametrize("depth,min_leaf", [(2, 1), (3, 5), (None, 3)])
def test_boosted_trees_match_oracle(kind, table, depth, min_leaf):
    X, y = case(table, kind, 7)
    gbt = GradientBoosted(
        n_stages=6, learning_rate=0.3, max_depth=depth, min_samples_leaf=min_leaf
    ).fit(X, y)
    current = np.full(len(y), y.mean())
    assert len(gbt.roots_) == 6
    for t in range(6):
        want = OracleBuilder(0, depth, 2, min_leaf).build(X, y - current)
        assert as_json(nested(gbt, t)) == as_json(want)
        current = current + 0.3 * oracle_predict(want, X)
    assert np.array_equal(gbt.predict(X), current)


@pytest.mark.parametrize("block", [16, 300, 1 << 12])
@pytest.mark.parametrize("kind", ["residual", "three"])
def test_scan_blocks_keep_the_first_feature(kind, block, monkeypatch):
    """Features scored in separate blocks tie-break as in one block."""
    monkeypatch.setattr(trees, "_BLOCK", block)
    X, y = case("onehot", kind, 12, n=900)
    X = np.column_stack([X, X[:, ::-1]])
    k = 3 if kind == "three" else 0
    got = nested(Cart("classification" if k else "regression", max_depth=6).fit(X, y))
    assert as_json(got) == as_json(oracle_cart(X, y, k, 6))


def test_boosted_training_values_are_predictions():
    """The leaf values a build writes for its rows are what ``predict`` returns."""
    X, y = case("grid", "residual", 8)
    order = np.argsort(X.T, axis=1, kind="stable")
    fitted = np.full(len(y), np.nan)
    tree = Cart("regression", max_depth=4)
    table = _Table(0)
    tree._grow(table, X, y, order, fitted=fitted)
    tree.n_features_ = X.shape[1]
    tree._store(table)
    assert np.array_equal(fitted, tree.predict(X))
    assert np.array_equal(fitted, oracle_predict(nested(tree), X))


def test_empty_branches_predict_like_full_batch():
    X, y = case("continuous", "residual", 9)
    tree = Cart("regression", max_depth=5).fit(X, y)
    whole = tree.predict(X)
    rows = np.array([tree.predict(X[i : i + 1])[0] for i in range(len(X))])
    assert np.array_equal(whole, rows)
    assert tree.predict(X[:0]).shape == (0,)


def ties_X(rng, n):
    """Few distinct values per column, with signed zeros and infinities."""
    return np.column_stack(
        [
            rng.integers(0, 3, n),
            rng.choice([-0.0, 0.0, 1.0], n),
            rng.choice([-np.inf, 0.5, np.inf], n),
            np.full(n, 2.0),
            rng.normal(size=n).round(1),
        ]
    ).astype(float)


def test_dense_ranks_order_cells_as_their_values():
    X = ties_X(np.random.default_rng(4), 300)
    ranks = _dense_ranks(X)
    for j in range(X.shape[1]):
        r, x = ranks[j], X[:, j]
        assert np.array_equal(r[:, None] < r[None, :], x[:, None] < x[None, :])
        assert np.array_equal(r[:, None] == r[None, :], x[:, None] == x[None, :])
        assert r.min() == 0 and r.max() == len(np.unique(x)) - 1


@pytest.mark.parametrize("kind", ["residual", "three"])
@pytest.mark.parametrize("min_leaf", [1, 3])
def test_bootstrap_forest_on_tied_columns_matches_oracle(kind, min_leaf):
    """A bootstrap repeats rows, so every sample column has ties to order by position."""
    rng = np.random.default_rng(6)
    X = ties_X(rng, 240)
    finite = np.where(np.isfinite(X), X, 0.0)
    y = response(rng, kind, finite) if kind == "three" else finite[:, 0] - finite[:, 4]
    task, k = ("classification", 3) if kind == "three" else ("regression", 0)
    forest = RandomForest(task, n_trees=5, min_samples_leaf=min_leaf, seed=3)
    forest.fit(X, y, n_classes=k or None)
    per_split = math.ceil(math.sqrt(X.shape[1]))
    for t in range(5):
        rng = np.random.default_rng(3 + t)
        rows = rng.integers(0, len(X), len(X))
        assert np.array_equal(
            np.argsort(_dense_ranks(X)[:, rows] * len(X) + np.arange(len(X)), axis=1),
            _presort(X[rows]),
        )
        builder = OracleBuilder(k, None, 2, min_leaf, per_split, rng)
        assert as_json(nested(forest, t)) == as_json(builder.build(X[rows], y[rows]))


def oracle_leaves(model, t, Q):
    return oracle_predict(nested(model, t), Q).reshape(
        (len(Q),) + model.value_.shape[1:]
    )


def served_rows(X, rng):
    """Training rows, fresh rows, and cells at plus and minus infinity."""
    fresh = rng.normal(size=(30, X.shape[1])) * 2
    fresh[::3, 0] = np.inf
    fresh[1::3, -1] = -np.inf
    fresh[2::5] = np.inf
    return np.vstack([X[:40], fresh])


QUERIES = {"none": slice(0, 0), "one": slice(0, 1), "one-inf": slice(42, 43),
           "batch": slice(None)}


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("kind", ["residual", "binary", "three"])
def test_flat_predict_matches_recursive_walk(kind, query):
    X, y = case("continuous", kind, 13)
    Q = served_rows(X, np.random.default_rng(2))[QUERIES[query]]
    k = {"binary": 2, "three": 3}.get(kind, 0)
    task = "classification" if k else "regression"
    cart = Cart(task, max_depth=7, min_samples_leaf=2).fit(X, y, n_classes=k or None)
    forest = RandomForest(task, n_trees=6, max_depth=5, seed=4).fit(X, y, n_classes=k or None)
    want_cart = oracle_leaves(cart, 0, Q)
    want_forest = np.mean([oracle_leaves(forest, t, Q) for t in range(6)], axis=0)
    for model, want in ((cart, want_cart), (forest, want_forest)):
        if k:
            assert model.predict_proba(Q).tobytes() == want.tobytes()
            assert np.array_equal(model.predict(Q), np.argmax(want, axis=1))
        else:
            assert model.predict(Q).tobytes() == want.tobytes()
    if not k:
        gbt = GradientBoosted(n_stages=12, learning_rate=0.2, max_depth=3).fit(X, y)
        want = np.full(len(Q), gbt.init_)
        for t in range(12):
            want += 0.2 * oracle_leaves(gbt, t, Q)
        assert gbt.predict(Q).tobytes() == want.tobytes()


def test_single_leaf_trees_predict_without_columns():
    """A tree with no split walks no level, so even a table without columns predicts."""
    X = np.empty((5, 0))
    y = np.arange(5.0)
    for model in (Cart(), RandomForest(n_trees=3), GradientBoosted(n_stages=2)):
        assert model.fit(X, y)._levels == 0
        assert model.predict(X).shape == (5,)


@pytest.mark.parametrize("walk", [9, 30, 100])
def test_row_blocks_do_not_change_predictions(walk, monkeypatch):
    """Nine trees, whose values numpy's ``mean`` would sum pairwise for a lone row."""
    X, y = case("continuous", "residual", 14)
    Xc, yc = case("continuous", "three", 14)
    models = [
        (RandomForest(n_trees=9, max_depth=4, seed=1).fit(X, y), X, "predict"),
        (RandomForest("classification", n_trees=9, seed=1).fit(Xc, yc), Xc, "predict_proba"),
        (GradientBoosted(n_stages=9, max_depth=2).fit(X, y), X, "predict"),
        (Cart(max_depth=6).fit(X, y), X, "predict"),
    ]
    counts = [0, 1, 2, 3, 4, 5, 11, 12, 13, 60]
    whole = [[getattr(m, name)(Q[:n]) for n in counts] for m, Q, name in models]
    monkeypatch.setattr(trees, "_WALK", walk)
    for (m, Q, name), want in zip(models, whole):
        for n, w in zip(counts, want):
            got = getattr(m, name)(Q[:n])
            assert got.shape == w.shape and got.tobytes() == w.tobytes()
            if n:
                assert got.tobytes() == getattr(m, name)(Q)[:n].tobytes()
        lone = np.concatenate([getattr(m, name)(Q[i : i + 1]) for i in range(len(Q))])
        assert lone.tobytes() == getattr(m, name)(Q).tobytes()
