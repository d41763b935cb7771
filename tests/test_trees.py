"""The tree grower against per-node oracles.

CART, forest and boosted trees all split on binned columns. Each of
their splits is checked against a brute-force search over every exact
candidate of its node: the depth-first oracle's per-column scan, which
sorts a node's rows by one feature and scores every midpoint between
distinct values. A forest tree is checked on its duplicated bootstrap
sample, with each node's candidate columns replayed from the tree's
generator. The tables hold at most 255 values per column, so every
candidate is a bin edge and a split must be the best one up to rounding.
The flat, level-by-level predict is checked against a recursive walk of
the trees rebuilt as nested dicts.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from tabcash.models import Cart, GradientBoosted, RandomForest, trees
from tabcash.models.trees import _MIN_GAIN, _bins, _Table


# The oracle's leaf value and node impurity of a node's targets.


def _leaf_payload(y, n_classes):
    if n_classes:
        counts = np.bincount(y.astype(int), minlength=n_classes).astype(float)
        return (counts / counts.sum()).tolist()
    return float(y.mean())


def _node_cost(y, n_classes):
    n = len(y)
    if n_classes:
        counts = np.bincount(y.astype(int), minlength=n_classes).astype(float)
        return n - float((counts * counts).sum()) / n
    s = float(y.sum())
    return float((y * y).sum()) - s * s / n


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
    def __init__(self, n_classes, max_depth, min_split, min_leaf):
        self.n_classes = n_classes
        self.max_depth = math.inf if max_depth is None else max_depth
        self.min_split = min_split
        self.min_leaf = min_leaf

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
        best = None
        for j in range(w):
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


def midpoint(lo, hi):
    """The threshold between neighbouring values (Python floats: no warnings)."""
    mid = 0.5 * (float(lo) + float(hi))
    return mid if mid < hi else float(lo)


def check_tree(model, t, X, y, n_classes, max_depth=None, min_split=2, min_leaf=1,
               per_split=None, rng=None):
    """The gates on tree ``t`` of a CART or forest grown on ``X``, ``y``, level by level.

    For a forest, ``X`` and ``y`` are the tree's duplicated bootstrap
    sample. A node may split when it is above ``max_depth``, holds
    ``min_split`` and ``2 * min_leaf`` rows, and its impurity exceeds
    ``_MIN_GAIN``. With ``rng``, a level where some node may split draws
    one row of uniforms per node, in level order, and a node's candidate
    columns are the sorted first ``per_split`` of its row's stable
    argsort; otherwise every column is a candidate. Then:

    - a leaf holds its rows' mean or class frequencies, within 1e-12, and
      if it may split, the best candidate split gains no more than
      ``_MIN_GAIN`` plus 1e-9 of the node's impurity;
    - a split is on a candidate column, leaves ``min_leaf`` rows a side,
      gains more than ``_MIN_GAIN``, and its children's impurity is within
      1e-9 of the node's impurity of the brute-force best over the
      candidate columns;
    - its threshold is the exact midpoint between the node's largest left
      and smallest right value.
    """
    max_depth = math.inf if max_depth is None else max_depth
    w = X.shape[1]

    def targets(rows):
        """A node's targets; centered for regression, so impurities round relative to their size."""
        v = y[rows]
        return v if n_classes else v - v.mean()

    def impurity(v):
        return _node_cost(v, n_classes) if n_classes else float((v * v).sum())

    level, depth = [(int(model.roots_[t]), np.arange(len(y)))], 0
    while level:
        costs = [impurity(targets(rows)) for _, rows in level]
        may = [
            depth < max_depth and len(rows) >= max(min_split, 2 * min_leaf) and cost > _MIN_GAIN
            for (_, rows), cost in zip(level, costs)
        ]
        draws = None
        if rng is not None and per_split < w and any(may):
            draws = rng.random((len(level), w))
        below = []
        for at, ((i, rows), cost) in enumerate(zip(level, costs)):
            columns = np.arange(w)
            if draws is not None:
                columns = np.sort(np.argsort(draws[at], kind="stable")[:per_split])
            v = targets(rows)
            found = [oracle_split_feature(X[rows, j], v, n_classes, min_leaf)
                     for j in columns] if may[at] else []
            best = min((f[0] for f in found if f is not None), default=math.inf)
            if model.left_[i] == i:
                want = _leaf_payload(y[rows], n_classes)
                assert model.value_[i] == pytest.approx(want, rel=1e-12, abs=1e-12)
                if may[at]:
                    assert cost - best <= _MIN_GAIN + 1e-9 * cost
                continue
            assert may[at]
            j, threshold = model.feature_[i], model.threshold_[i]
            assert j in columns
            x = X[rows, j]
            go_left = x <= threshold
            assert min_leaf <= go_left.sum() <= len(rows) - min_leaf
            split_cost = impurity(targets(rows[go_left])) + impurity(targets(rows[~go_left]))
            assert cost - split_cost > _MIN_GAIN
            assert split_cost - best <= 1e-9 * cost
            assert threshold == midpoint(x[go_left].max(), x[~go_left].min())
            below += [(model.left_[i], rows[go_left]), (model.right_[i], rows[~go_left])]
        level, depth = below, depth + 1


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
        assert model.left_[i] > i and model.right_[i] > i, "each child comes after its parent"
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


def cart_args(params):
    """The gate's (max_depth, min_split, min_leaf) for ``Cart`` keyword arguments."""
    return (params.get("max_depth"), params.get("min_samples_split", 2),
            params.get("min_samples_leaf", 1))


@pytest.mark.parametrize("params", CART_PARAMS)
@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("kind", ["poisson", "residual"])
def test_regression_cart_matches_oracle(kind, table, params):
    for seed in range(3):
        X, y = case(table, kind, seed)
        check_tree(Cart("regression", **params).fit(X, y), 0, X, y, 0, *cart_args(params))


@pytest.mark.parametrize("params", CART_PARAMS)
@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("kind", ["binary", "three"])
def test_classification_cart_matches_oracle(kind, table, params):
    for seed in range(3):
        X, y = case(table, kind, seed)
        k = 3 if kind == "three" else 2
        cart = Cart("classification", **params).fit(X, y, n_classes=k)
        check_tree(cart, 0, X, y, k, *cart_args(params))


def check_forest(forest, X, y, n_classes, min_leaf):
    """Gate each tree of a bootstrap forest on its duplicated sample, replaying its generator."""
    per_split = math.ceil(math.sqrt(X.shape[1]))
    for t in range(forest.n_trees):
        rng = np.random.default_rng(forest.seed + t)
        rows = rng.integers(0, len(X), len(X))
        check_tree(forest, t, X[rows], y[rows], n_classes, forest.max_depth, 2, min_leaf,
                   per_split, rng)


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("kind", ["poisson", "residual", "three"])
@pytest.mark.parametrize("min_leaf", [1, 4])
def test_forest_trees_match_oracle(kind, table, min_leaf):
    X, y = case(table, kind, 5)
    task, k = ("classification", 3) if kind == "three" else ("regression", 0)
    forest = RandomForest(task, n_trees=4, min_samples_leaf=min_leaf, seed=11)
    forest.fit(X, y, n_classes=k or None)
    assert len(forest.roots_) == 4
    check_forest(forest, X, y, k, min_leaf)


def same_tree(got, want):
    """Nested trees equal node for node in feature and threshold, leaf values within 1e-12."""
    if "leaf" in want:
        assert "leaf" in got
        assert got["leaf"] == pytest.approx(want["leaf"], rel=1e-12, abs=1e-12)
        return
    assert (got.get("feature"), got.get("threshold")) == (want["feature"], want["threshold"])
    same_tree(got["left"], want["left"])
    same_tree(got["right"], want["right"])


@pytest.mark.parametrize("kind", ["residual", "three"])
@pytest.mark.parametrize("min_leaf", [1, 4])
def test_bootstrap_weights_are_the_duplicated_sample(kind, min_leaf):
    """A forest tree weighs each drawn row by its draw count: it is CART on the duplicated sample.

    Continuous columns with no ties or mirrors between them, so no two
    candidate splits tie up to the rounding that weighted sums change.
    """
    X, y = case("continuous", kind, 17, n=200)
    task, k = ("classification", 3) if kind == "three" else ("regression", 0)
    forest = RandomForest(task, n_trees=5, min_samples_leaf=min_leaf, feature_subsample=False,
                          seed=21).fit(X, y, n_classes=k or None)
    for t in range(5):
        rows = np.random.default_rng(21 + t).integers(0, len(X), len(X))
        cart = Cart(task, min_samples_leaf=min_leaf).fit(X[rows], y[rows], n_classes=k or None)
        assert (forest.feature_ >= 0).sum() > 10 * (t + 1)
        same_tree(nested(forest, t), nested(cart))


def gain(v, go_left):
    """Drop in squared error when ``v`` splits into ``go_left`` and the rest, on centered values."""
    c = v - v.mean()
    sl, nl = c[go_left].sum(), go_left.sum()
    s, n = c.sum(), len(c)
    return sl * sl / nl + (s - sl) ** 2 / (n - nl) - s * s / n


def oracle_best_gain(X, r, min_leaf):
    """Best gain over every exact candidate split of every column, by brute force."""
    best = -math.inf
    for x in X.T:
        values = np.unique(x)
        for lo, hi in zip(values[:-1], values[1:]):
            go_left = x <= lo
            if min_leaf <= go_left.sum() <= len(x) - min_leaf:
                best = max(best, gain(r, go_left))
    return best


def tree_nodes(model, t, X):
    """(node, depth, rows of ``X`` that reach it) for every node of tree ``t``."""
    found, stack = [], [(int(model.roots_[t]), 0, np.arange(len(X)))]
    while stack:
        i, depth, rows = stack.pop()
        found.append((i, depth, rows))
        if model.left_[i] != i:
            go_left = X[rows, model.feature_[i]] <= model.threshold_[i]
            stack += [(model.left_[i], depth + 1, rows[go_left]),
                      (model.right_[i], depth + 1, rows[~go_left])]
    return found


def check_boosting(gbt, X, y, max_depth, min_leaf, exact):
    """The gates on boosted trees, stage by stage.

    Always: each side of a split holds ``min_samples_leaf`` rows, each
    threshold lies between the node's largest left value and smallest
    right value, leaves hold their rows' mean residual, and ``predict`` is
    the stage-by-stage sum. With ``exact`` (every column has at most
    ``_MAX_BINS`` distinct values), each split's gain is the brute-force
    best gain up to 1e-9 of the node's squared error, no leaf that could
    split has a better gain than ``_MIN_GAIN`` by more, and each threshold
    is the exact midpoint of its node. Returns, per column, the
    (largest left, smallest right) value pair of each split on it.
    """
    current = np.full(len(y), y.mean())
    used = [[] for _ in range(X.shape[1])]
    for t in range(gbt.n_stages):
        r = y - current
        for i, depth, rows in tree_nodes(gbt, t, X):
            v = r[rows]
            sse = float(((v - v.mean()) ** 2).sum())
            if gbt.left_[i] == i:
                assert gbt.value_[i] == pytest.approx(v.mean(), rel=1e-12, abs=1e-12)
                if exact and depth < max_depth and len(rows) >= 2 * min_leaf:
                    assert oracle_best_gain(X[rows], v, min_leaf) <= _MIN_GAIN + 1e-9 * sse
                continue
            j, threshold = gbt.feature_[i], gbt.threshold_[i]
            x = X[rows, j]
            go_left = x <= threshold
            assert min_leaf <= go_left.sum() <= len(rows) - min_leaf
            lo, hi = x[go_left].max(), x[~go_left].min()
            assert lo <= threshold < hi
            used[j].append((lo, hi))
            if exact:
                assert threshold == midpoint(lo, hi)
                best = oracle_best_gain(X[rows], v, min_leaf)
                assert gain(v, go_left) > _MIN_GAIN
                assert best - gain(v, go_left) <= 1e-9 * sse
        current = current + gbt.learning_rate * oracle_predict(nested(gbt, t), X)
    assert np.array_equal(gbt.predict(X), current)
    return used


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("kind", ["poisson", "residual"])
@pytest.mark.parametrize("depth,min_leaf", [(2, 1), (3, 5), (None, 3)])
def test_boosted_trees_match_oracle(kind, table, depth, min_leaf):
    """Each boosted split is the best one a brute-force search finds, with its exact threshold.

    Binned columns hold one bin per value here. The depth-first oracle is
    no oracle bit for bit: sums are rounded in another order, so mirrored
    columns tie either way and leaf values move by an ulp.
    """
    X, y = case(table, kind, 7)
    assert all(len(np.unique(x)) <= trees._MAX_BINS for x in X.T)
    gbt = GradientBoosted(
        n_stages=6, learning_rate=0.3, max_depth=depth, min_samples_leaf=min_leaf
    ).fit(X, y)
    assert len(gbt.roots_) == 6
    check_boosting(gbt, X, y, math.inf if depth is None else depth, min_leaf, exact=True)


def quantile_bins(x):
    """Bin of each distinct value of a column wider than ``_MAX_BINS``: runs cut at row-count quantiles."""
    values, counts = np.unique(x, return_counts=True)
    quantile = (counts.cumsum() - counts) * trees._MAX_BINS // len(x)
    return values, np.unique(quantile, return_inverse=True)[1]


@pytest.mark.parametrize("depth,min_leaf", [(6, 2), (None, 1), (None, 4)])
def test_boosted_wide_columns_split_at_bin_edges(depth, min_leaf):
    """A column with more distinct values than bins splits only between its quantile bins.

    No split leaves a bin's rows on both sides, so the splits on the
    1,200-value column use at most 254 distinct bin edges. The thresholds
    themselves are node midpoints: the node's first occupied bin on the
    right need not be the next bin, so one edge can carry several.
    """
    rng = np.random.default_rng(16)
    X = np.column_stack([rng.normal(size=1200), rng.integers(0, 5, 1200), rng.normal(size=1200)])
    X[:, 2] = X[:, 2].round(1)  # about 70 distinct values
    y = X[:, 0] + np.sin(3 * X[:, 2]) + rng.normal(size=1200) / 4
    gbt = GradientBoosted(n_stages=6, learning_rate=0.5, max_depth=depth,
                          min_samples_leaf=min_leaf).fit(X, y)
    used = check_boosting(gbt, X, y, math.inf if depth is None else depth, min_leaf, exact=False)
    values, bin_of = quantile_bins(X[:, 0])
    assert len(values) > trees._MAX_BINS and bin_of.max() < trees._MAX_BINS
    left, right = (bin_of[np.searchsorted(values, side)] for side in zip(*used[0]))
    assert (left < right).all()
    assert 20 < len(set(left.tolist())) <= trees._MAX_BINS - 1


@pytest.mark.parametrize("block", [16, 300, 1 << 12])
@pytest.mark.parametrize("kind", ["residual", "three"])
def test_scan_blocks_keep_the_first_feature(kind, block, monkeypatch):
    """Runs of nodes scored apart give the trees one histogram gives, and exact ties go to the first column.

    Each column appears twice, so every CART split ties exactly between a
    column and its copy; the first in column order must win.
    """
    X, y = case("onehot", kind, 12, n=900)
    X[:, -1] = X[:, -1].round(1)  # about 40 bins: nodes share a run below the default bound
    X = np.column_stack([X, X[:, ::-1]])
    k = 3 if kind == "three" else 0
    task = "classification" if k else "regression"

    def fit():
        return [Cart(task, max_depth=6).fit(X, y),
                RandomForest(task, n_trees=3, max_depth=6, seed=5).fit(X, y, n_classes=k or None)]

    whole = fit()
    assert whole[0].feature_.max() < X.shape[1] // 2
    monkeypatch.setattr(trees, "_CELLS", block)
    for got, want in zip(fit(), whole):
        for name in ("roots_", "feature_", "threshold_", "left_", "value_"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    check_tree(whole[0], 0, X, y, k, 6)


@pytest.mark.parametrize("seed", range(8))
def test_mirrored_columns_keep_the_partition_tie_order(seed):
    """Mirrored columns split rows alike, so whichever wins, rows reach the oracle's leaves.

    Columns 1 and 2 are mirrored 0/1 indicators: each child of the root
    split on column 0 can split on either with the same partition and, up
    to rounding, the same gain, and rounding may break the tie either way.
    """
    rng = np.random.default_rng(seed)
    root, two = rng.integers(0, 2, 40), rng.integers(0, 2, 40)
    X = np.column_stack([root, two == 0, two == 1]).astype(float)
    y = 10.0 * root + 0.5 * two + rng.normal(size=40)
    cart = Cart("regression", max_depth=2).fit(X, y)
    check_tree(cart, 0, X, y, 0, 2)
    want = oracle_predict(oracle_cart(X, y, 0, 2), X)
    assert cart.predict(X) == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_boosted_training_values_are_predictions():
    """The leaf values a build writes for its rows are what ``predict`` returns."""
    X, y = case("grid", "residual", 8)
    tree = GradientBoosted(n_stages=1, learning_rate=1.0, max_depth=4)
    table = _Table(0)
    fitted = tree._grow(table, _bins(X), y, np.arange(len(y)))
    tree.init_, tree.n_features_ = 0.0, X.shape[1]
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
    """Bins are a column's dense value ranks up to ``_MAX_BINS`` values, and ordered runs of values beyond."""
    rng = np.random.default_rng(4)
    X = np.column_stack([ties_X(rng, 300), rng.normal(size=300)])
    keys, lo, hi, bins = _bins(X)
    assert np.array_equal(keys.min(axis=0), np.arange(0, X.shape[1] * bins, bins))
    for j in range(X.shape[1]):
        r, x = keys[:, j], X[:, j]
        assert np.all(lo[r] <= x) and np.all(x <= hi[r])
        assert np.array_equal(r[:, None] < r[None, :], (x[:, None] < x[None, :]) & (r[:, None] != r[None, :]))
        if len(np.unique(x)) <= trees._MAX_BINS:
            assert np.array_equal(r[:, None] == r[None, :], x[:, None] == x[None, :])
            assert r.max() - j * bins == len(np.unique(x)) - 1
            assert np.array_equal(lo[r], x) and np.array_equal(hi[r], x)
        else:
            assert r.max() - j * bins == trees._MAX_BINS - 1


@pytest.mark.parametrize("kind", ["residual", "three"])
@pytest.mark.parametrize("min_leaf", [1, 3])
def test_bootstrap_forest_on_tied_columns_matches_oracle(kind, min_leaf):
    """A bootstrap repeats rows, and the columns hold ties, signed zeros, infinities and a constant."""
    rng = np.random.default_rng(6)
    X = ties_X(rng, 240)
    finite = np.where(np.isfinite(X), X, 0.0)
    y = response(rng, kind, finite) if kind == "three" else finite[:, 0] - finite[:, 4]
    task, k = ("classification", 3) if kind == "three" else ("regression", 0)
    forest = RandomForest(task, n_trees=5, min_samples_leaf=min_leaf, seed=3)
    forest.fit(X, y, n_classes=k or None)
    check_forest(forest, X, y, k, min_leaf)


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


def as_preorder(model):
    """A copy of ``model`` whose node table is renumbered tree by tree into preorder.

    Preorder is the layout of node tables written before trees grew level
    by level; any valid table of schema 3 must load and predict the same.
    """
    feature, threshold, left, right, value = [], [], [], [], []

    def visit(i):
        node = len(feature)
        feature.append(model.feature_[i])
        threshold.append(model.threshold_[i])
        value.append(model.value_[i])
        left.append(node)
        right.append(node)
        if model.left_[i] != i:
            left[node] = visit(model.left_[i])
            right[node] = visit(model.right_[i])
        return node

    copy = type(model).from_state(model.to_state())
    copy.roots_ = np.array([visit(root) for root in model.roots_], dtype=np.int32)
    copy.feature_ = np.array(feature, dtype=np.int32)
    copy.threshold_ = np.array(threshold)
    copy.left_ = np.array(left, dtype=np.int32)
    copy.right_ = np.array(right, dtype=np.int32)
    copy.value_ = np.array(value)
    return copy


@pytest.mark.parametrize("kind", ["residual", "three"])
def test_preorder_node_tables_still_load(kind):
    X, y = case("continuous", kind, 15)
    Q = served_rows(X, np.random.default_rng(3))
    k = 3 if kind == "three" else 0
    task = "classification" if k else "regression"
    models = [RandomForest(task, n_trees=5, max_depth=6, seed=2).fit(X, y, n_classes=k or None)]
    if not k:
        models.append(GradientBoosted(n_stages=5, max_depth=3).fit(X, y))
    for model in models:
        old = as_preorder(model)
        splits = old.left_ != np.arange(len(old.left_))
        assert np.array_equal(old.left_[splits], np.flatnonzero(splits) + 1)
        assert not np.array_equal(old.left_, model.left_)
        loaded = type(model).from_state(old.to_state())
        for name in ("predict_proba", "predict") if k else ("predict",):
            got, want = getattr(loaded, name)(Q), getattr(model, name)(Q)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_forest_fit_memory_stays_flat():
    """Peak traced memory of a 3,200x8 forest fit: 5 trees to depth 12, leaves of one row.

    The bound is the peak of the depth-first exact engine that level-wise
    growth replaced, 1.82 MB (numpy 2.4, Python 3.11), plus 25%. The binned
    grower reads 1.51 MB, most of it the bin keys and the histograms of
    runs of at most ``_CELLS`` cells; arrays kept per level, or per tree,
    would pass the bound at once.
    """
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3200, 8))
    y = rng.poisson(np.exp(0.3 * X[:, 0] - 0.2 * X[:, 1])).astype(float)
    forest = RandomForest(n_trees=5, max_depth=12, min_samples_leaf=1, seed=0)
    tracemalloc.start()
    try:
        forest.fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3e6


def test_deep_boosting_memory_stays_flat():
    """Peak traced memory of a 3,200x8 boosted fit: 2 stages grown to leaves of one row.

    The binned grower read 1.99 MB (numpy 2.4, Python 3.11) with runs as
    large as a level's keys; the bound is that plus 25%. With runs of at
    most ``_CELLS`` cells it reads 1.65 MB. Its deepest levels hold over a
    thousand nodes: scoring all of a level's nodes in one histogram of
    every node, column and bin reads 12.7 MB.
    """
    rng = np.random.default_rng(0)
    X = rng.normal(size=(3200, 8))
    y = rng.poisson(np.exp(0.3 * X[:, 0] - 0.2 * X[:, 1])).astype(float)
    gbt = GradientBoosted(n_stages=2, max_depth=None)
    tracemalloc.start()
    try:
        gbt.fit(X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gbt._levels > 20
    assert peak < 2.49e6
