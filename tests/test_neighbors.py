"""The shared neighbour primitive against sort-based and row-at-a-time oracles."""

import numpy as np
import pytest

from tabcash.balance import Balancer, profile
from tabcash.models import KNNModel
from tabcash.neighbors import distance_blocks, k_smallest
from tabcash.preprocess import Imputer


def stable_k(D, k):
    return np.argsort(D, axis=1, kind="stable")[:, :k]


def row_distances(X, q):
    return np.sqrt(((X - q) ** 2).sum(axis=1))


def grid_data(seed, n=60, w=3, n_labels=2, minority=0.25):
    """Small integer-grid points: many exact distance ties."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, (n, w)).astype(float)
    y = np.where(rng.uniform(size=n) < minority, rng.integers(1, n_labels, n), 0)
    y[:2] = [1, n_labels - 1]
    return X, y


# Row-at-a-time versions of the cleaning rules and the kNN imputer, kept
# as oracles for the block-vectorised code.


def loop_tomek(X, y, major):
    majority = y == major
    nearest = []
    for i in range(len(X)):
        d = row_distances(X, X[i])
        d[i] = np.inf
        nearest.append(int(np.argmin(d)))
    keep = [
        i
        for i in range(len(X))
        if not (majority[i] and not majority[nearest[i]] and nearest[nearest[i]] == i)
    ]
    return np.asarray(keep, dtype=int)


def loop_enn(X, y, major, k):
    k = min(k, len(X) - 1)
    drop = []
    for i in np.flatnonzero(y == major):
        d = row_distances(X, X[i])
        d[i] = np.inf
        votes = np.bincount(y[np.argsort(d, kind="stable")[:k]])
        own = votes[y[i]] if y[i] < len(votes) else 0
        others = np.delete(votes, y[i]) if y[i] < len(votes) else votes
        if others.size and others.max() > own:
            drop.append(i)
    return np.setdiff1d(np.arange(len(X)), np.asarray(drop, dtype=int))


def loop_cnn(X, y, major, seed):
    rng = np.random.default_rng(seed)
    condensed = set(np.flatnonzero(y != major).tolist())
    condensed.add(int(rng.choice(np.flatnonzero(y == major))))
    order = rng.permutation(len(X))
    changed = True
    while changed:
        changed = False
        for i in order:
            if i in condensed or y[i] != major:
                continue
            store = np.fromiter(sorted(condensed), dtype=int)
            if y[store[int(np.argmin(row_distances(X[store], X[i])))]] != y[i]:
                condensed.add(int(i))
                changed = True
    return np.fromiter(sorted(condensed), dtype=int)


def loop_knn_fill(bank, stats, X, k):
    out = X.copy()
    for i in np.flatnonzero(np.isnan(X).any(axis=1)):
        present = ~np.isnan(X[i])
        holes = np.flatnonzero(~present)
        if len(bank) == 0 or not present.any():
            out[i, holes] = stats[holes]
            continue
        d = row_distances(bank[:, present], X[i, present])
        nearest = np.argsort(d, kind="stable")[: min(k, len(bank))]
        out[i, holes] = bank[nearest][:, holes].mean(axis=0)
    return out


class TestKSmallest:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stable_argsort_on_ties(self, seed):
        rng = np.random.default_rng(seed)
        D = np.round(rng.uniform(0, 3, (40, 30)))
        D[rng.uniform(size=D.shape) < 0.1] = np.inf
        D[3] = 1.0
        D[7] = np.inf
        for k in (1, 2, 5, 29, 30):
            np.testing.assert_array_equal(k_smallest(D, k), stable_k(D, k))

    def test_single_column_and_nan(self):
        D = np.array([[2.0], [np.nan]])
        np.testing.assert_array_equal(k_smallest(D, 1), stable_k(D, 1))
        D = np.array([[np.nan, 1.0, np.nan, 0.5], [3.0, np.nan, 3.0, 3.0]])
        for k in range(1, 5):
            np.testing.assert_array_equal(k_smallest(D, k), stable_k(D, k))


class TestDistanceBlocks:
    @pytest.mark.parametrize("width", range(1, 8))
    def test_bitwise_equal_to_row_formula(self, width):
        rng = np.random.default_rng(width)
        Q = rng.normal(size=(7, width))
        X = rng.normal(size=(50, width))
        D = np.vstack([block for _, block in distance_blocks(Q, X)])
        expected = np.vstack([row_distances(X, q) for q in Q])
        np.testing.assert_array_equal(D, expected)

    def test_blocks_cover_queries_in_order(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50_000, 2))
        Q = rng.normal(size=(9, 2))
        starts, parts = zip(*distance_blocks(Q, X))
        assert starts == (0, 2, 4, 6, 8)
        D = np.vstack(parts)
        for r in (0, 1, 2, 8):
            np.testing.assert_array_equal(D[r], row_distances(X, Q[r]))


class TestCleaningMatchesRowLoops:
    @pytest.mark.parametrize("seed", range(5))
    def test_tomek(self, seed):
        X, y = grid_data(seed)
        Xt, yt = Balancer("tomek").fit_resample(X, y)
        keep = loop_tomek(X, y, profile(y).majority_class)
        np.testing.assert_array_equal(Xt, X[keep])
        np.testing.assert_array_equal(yt, y[keep])

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_enn_three_labels(self, seed, k):
        X, y = grid_data(seed, n_labels=3, minority=0.4)
        Xt, yt = Balancer("enn", k=k).fit_resample(X, y)
        keep = loop_enn(X, y, profile(y).majority_class, k)
        np.testing.assert_array_equal(Xt, X[keep])
        np.testing.assert_array_equal(yt, y[keep])

    @pytest.mark.parametrize("seed", range(5))
    def test_cnn(self, seed):
        X, y = grid_data(seed, n=80)
        Xt, yt = Balancer("cnn").fit_resample(X, y, seed=seed)
        keep = loop_cnn(X, y, profile(y).majority_class, seed)
        np.testing.assert_array_equal(Xt, X[keep])
        np.testing.assert_array_equal(yt, y[keep])


class TestKnnSearchMatchesArgsort:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 3, 9])
    def test_imputer(self, seed, k):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, (70, 4)).astype(float)
        X[rng.uniform(size=X.shape) < 0.25] = np.nan
        X[5] = np.nan
        imp = Imputer("knn", k=k).fit(X)
        Q = rng.integers(0, 4, (30, 4)).astype(float)
        Q[rng.uniform(size=Q.shape) < 0.4] = np.nan
        for table in (X, Q):
            expected = loop_knn_fill(imp.complete_rows_, imp.statistics_, table, k)
            np.testing.assert_array_equal(imp.transform(table), expected)

    @pytest.mark.parametrize("seed", range(3))
    def test_knn_model(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, (40, 2)).astype(float)
        y = rng.integers(0, 2, 40)
        Q = rng.integers(0, 3, (25, 2)).astype(float)
        model = KNNModel("classification", k=7).fit(X, y)
        d2 = (Q * Q).sum(1)[:, None] + (X * X).sum(1)[None, :] - 2.0 * Q @ X.T
        np.testing.assert_array_equal(model._neighbors(Q), stable_k(d2, 7))
