"""The shared neighbour search against sort-based and row-at-a-time oracles."""

import sys
import threading

import numpy as np
import pytest

from tabcash import neighbors
from tabcash.balance import Balancer, profile
from tabcash.models import KNNModel
from tabcash.neighbors import bank, distances, nearest, shared_graphs, within
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


def loop_smote(X, y, major, k, ratio, seed):
    rng = np.random.default_rng(seed)
    minority_idx = np.flatnonzero(y != major)
    extra = int(np.ceil((y == major).sum() / ratio)) - len(minority_idx)
    Xm = X[minority_idx]
    k = min(k, len(Xm) - 1)
    ids = stable_nearest(Xm, Xm, k, skip=np.arange(len(Xm)))
    base = rng.integers(0, len(Xm), extra)
    slot = rng.integers(0, k, extra)
    u = rng.uniform(size=extra)
    rows, labels = [X], [y]
    for b, s, t in zip(base, slot, u):
        nn = int(ids[b, s])
        rows.append([Xm[b] + t * (Xm[nn] - Xm[b])])
        labels.append([y[minority_idx[b]]])
    return np.vstack(rows), np.concatenate(labels)


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


def stable_nearest(Q, X, k, skip=None):
    D = distances(Q, X)
    if skip is not None:
        D[np.arange(len(Q)), skip] = np.inf
    return stable_k(D, k)


class TestNearest:
    @pytest.mark.parametrize("width", range(1, 13))
    def test_integer_grid_ties(self, width):
        rng = np.random.default_rng(width)
        X = rng.integers(0, 3, (90, width)).astype(float)
        Q = np.vstack([rng.integers(0, 3, (20, width)), rng.integers(0, 6, (20, width)) / 2])
        for k in (1, 2, 5, len(X)):
            np.testing.assert_array_equal(nearest(Q, X, k), stable_nearest(Q, X, k))

    @pytest.mark.parametrize("k", [1, 2, 5, 89])
    def test_skip(self, k):
        rng = np.random.default_rng(k)
        X = rng.integers(0, 3, (90, 3)).astype(float)
        own = np.arange(len(X))
        np.testing.assert_array_equal(
            nearest(X, X, k, skip=own), stable_nearest(X, X, k, skip=own)
        )
        rows = np.flatnonzero(rng.uniform(size=len(X)) < 0.5)
        np.testing.assert_array_equal(
            nearest(X[rows], X, k, skip=rows), stable_nearest(X[rows], X, k, skip=rows)
        )

    @pytest.mark.parametrize("value", [0.0, 3.5, -1e8])
    def test_all_equal_rows(self, value):
        X = np.full((40, 4), value)
        Q = np.vstack([X[:3], X[:3] + 1.0])
        for k in (1, 2, 5, 40):
            expected = np.tile(np.arange(k), (len(Q), 1))
            np.testing.assert_array_equal(nearest(Q, X, k), expected)
        np.testing.assert_array_equal(
            nearest(X, X, 2, skip=np.arange(40))[:3], [[1, 2], [0, 2], [0, 1]]
        )

    @pytest.mark.parametrize("offset", [1e8, 3e9, -1e12])
    def test_offset_rows(self, offset):
        # The Gram form cancels here; only the exact re-rank can order these.
        rng = np.random.default_rng(5)
        X = offset + rng.integers(0, 5, (80, 3)) * 0.2
        Q = offset + rng.integers(0, 9, (30, 3)) * 0.1
        for k in (1, 2, 5, 80):
            np.testing.assert_array_equal(nearest(Q, X, k), stable_nearest(Q, X, k))
        one = np.array([[1e8], [1e8 + 1], [1e8 + 3]])
        np.testing.assert_array_equal(nearest(np.array([[1e8 + 0.6]]), one, 2), [[1, 0]])

    def test_overflow_and_infinite_values(self):
        X = np.array([[1e200], [2e200], [0.0], [-1e200]])
        Q = np.array([[0.0], [1e-300]])
        with np.errstate(over="ignore", invalid="ignore"):
            for k in (1, 2, 4):
                np.testing.assert_array_equal(nearest(Q, X, k), stable_nearest(Q, X, k))
            np.testing.assert_array_equal(nearest(Q, X, 4), [[2, 0, 1, 3]] * 2)
            # inf - inf gives NaN distances, which a stable argsort puts last.
            X = np.array([[np.inf], [1.0], [np.inf], [-np.inf]])
            Q = np.array([[np.inf], [0.0]])
            for k in (1, 2, 4):
                np.testing.assert_array_equal(nearest(Q, X, k), stable_nearest(Q, X, k))
            np.testing.assert_array_equal(nearest(Q, X, 4), [[1, 3, 0, 2], [1, 0, 2, 3]])


def screen_data(kind, width, seed):
    """Grid rows with exact distance ties, and queries between them."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, (70, width)).astype(float)
    Q = rng.integers(0, 5, (25, width)) / 2
    if kind == "duplicated":
        X = X[rng.permutation(np.r_[np.arange(35), np.arange(35)])]
    scale, offset = {"offset": (1.0, 1e8), "huge": (1e150, 0.0), "tiny": (1e-150, 0.0)}.get(
        kind, (0.1, 0.0)
    )
    return X * scale + offset, Q * scale + offset


class TestScreenBound:
    """The screen's slack grows with the width: it must keep every neighbour."""

    @pytest.mark.parametrize("kind", ["offset", "huge", "tiny", "duplicated"])
    @pytest.mark.parametrize("width", range(1, 17))
    def test_nearest_is_the_stable_argsort(self, kind, width):
        X, Q = screen_data(kind, width, seed=width)
        n = len(X)
        rows = np.arange(0, n, 3)
        for k in (1, 2, 33, n):
            for passed in (None, bank(X)):
                np.testing.assert_array_equal(
                    nearest(Q, X, k, bank=passed), stable_nearest(Q, X, k)
                )
                j = min(k, n - 1)
                np.testing.assert_array_equal(
                    nearest(X[rows], X, j, skip=rows, bank=passed),
                    stable_nearest(X[rows], X, j, skip=rows),
                )

    @pytest.mark.parametrize("kind", ["offset", "huge", "tiny", "duplicated"])
    @pytest.mark.parametrize("width", range(1, 17))
    def test_within_is_the_exact_radius_test(self, kind, width):
        X, Q = screen_data(kind, width, seed=width)
        D = distances(Q, X)
        # Each radius is the distance to some query row: ties on every boundary.
        radius = D[np.random.default_rng(width).integers(0, len(Q), len(X)), np.arange(len(X))]
        rows, cols = np.nonzero(D <= radius)
        for passed in (None, bank(X)):
            q, j, d = within(Q, X, radius, bank=passed)
            np.testing.assert_array_equal(q, rows)
            np.testing.assert_array_equal(j, cols)
            assert d.tobytes() == D[rows, cols].tobytes()


class TestDistanceBlocks:
    """``distances``, the exact rule that ranks every block of candidates."""

    @pytest.mark.parametrize("width", range(1, 8))
    def test_bitwise_equal_to_row_formula(self, width):
        rng = np.random.default_rng(width)
        Q = rng.normal(size=(7, width))
        X = rng.normal(size=(50, width))
        expected = np.vstack([row_distances(X, q) for q in Q])
        np.testing.assert_array_equal(distances(Q, X), expected)
        per_row = X[rng.integers(0, len(X), (len(Q), 9))]
        np.testing.assert_array_equal(
            distances(Q, per_row), np.vstack([row_distances(t, q) for q, t in zip(Q, per_row)])
        )

    def test_blocks_cover_queries_in_order(self):
        # 50,000 reference rows make blocks of two query rows. On all-equal
        # rows every row is a candidate, so the re-rank takes one query row
        # per sub-block.
        rng = np.random.default_rng(0)
        X = rng.integers(0, 30, (50_000, 2)).astype(float)
        Q = rng.integers(0, 30, (9, 2)).astype(float)
        for k in (1, 5, 300):
            np.testing.assert_array_equal(nearest(Q, X, k), stable_nearest(Q, X, k))
        flat = np.zeros_like(X)
        np.testing.assert_array_equal(nearest(Q, flat, 3), np.tile(np.arange(3), (9, 1)))


class TestGramCancellation:
    def test_knn_model_on_offset_rows(self):
        model = KNNModel("regression", k=1).fit([[1e8], [1e8 + 1], [1e8 + 3]], [0, 10, 20])
        np.testing.assert_array_equal(model.predict([[1e8 + 0.6]]), [10.0])

    def test_smote_pairs_offset_minority_rows_with_their_nearest(self):
        # Minority rows pair up 0.25 apart, the pairs 10 apart: synthetic rows
        # must stay inside a pair. Far neighbours would fill the gap.
        offset = 1e10
        minority = offset + np.array([[0.0], [0.25], [10.0], [10.25]])
        X = np.vstack([minority, np.arange(40.0)[:, None]])
        y = np.r_[np.ones(4, dtype=int), np.zeros(40, dtype=int)]
        Xb, _ = Balancer("smote", ratio=1.0, k=1).fit_resample(X, y, seed=3)
        s = Xb[len(X) :, 0] - offset
        tol = 1e-5
        inside = ((s >= -tol) & (s <= 0.25 + tol)) | ((s >= 10 - tol) & (s <= 10.25 + tol))
        assert inside.all(), s[~inside]


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

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_smote(self, seed, k):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(90, 3))
        y = np.r_[np.zeros(72, dtype=int), rng.integers(1, 3, 18)]
        for ratio in (1.0, 2.5):
            Xs, ys = Balancer("smote", ratio=ratio, k=k).fit_resample(X, y, seed=seed)
            Xo, yo = loop_smote(X, y, 0, k, ratio, seed)
            assert Xs.tobytes() == Xo.tobytes()
            np.testing.assert_array_equal(ys, yo)

    @pytest.mark.parametrize("seed", range(10))
    def test_cnn(self, seed):
        cases = [grid_data(seed, n=n, n_labels=3) for n in (80, 400)]
        # The smallest gated case: two majority rows, one minority row.
        cases.append((grid_data(seed, n=3)[0], np.roll([0, 0, 1 + seed % 2], seed)))
        # Rows at 1 and 2 on a line, 1 and 2 from the minority row at 0: when
        # the row at 2 joins first, the row at 1 lies as near to it as to the
        # minority row, and the lower row index of the two decides.
        line = np.array([[0.0], [1.0], [2.0], [100.0]])
        for perm in ([0, 1, 2, 3], [3, 1, 2, 0], [2, 1, 3, 0]):
            cases.append((line[perm], np.array([1, 0, 0, 0])[perm]))
        for X, y in cases:
            Xt, yt = Balancer("cnn").fit_resample(X, y, seed=seed)
            keep = loop_cnn(X, y, profile(y).majority_class, seed)
            np.testing.assert_array_equal(Xt, X[keep])
            np.testing.assert_array_equal(yt, y[keep])

    @pytest.mark.parametrize("seed", range(5))
    def test_warm_graphs(self, seed):
        X, y = grid_data(seed, n_labels=3, minority=0.4)
        major = profile(y).majority_class

        def check(method, k, X):
            Xt, yt = Balancer(method, k=k).fit_resample(X, y)
            keep = loop_tomek(X, y, major) if method == "tomek" else loop_enn(X, y, major, k)
            np.testing.assert_array_equal(Xt, X[keep])
            np.testing.assert_array_equal(yt, y[keep])

        # The first row ENN drops moves far out: the same shape, another graph.
        kept = loop_enn(X, y, major, 6)
        changed = X.copy()
        changed[np.setdiff1d(np.arange(len(X)), kept)[0], 0] = 10.0
        assert not np.array_equal(loop_enn(changed, y, major, 6), kept)
        interleaved = np.full((len(X), 2 * X.shape[1]), 7.0)
        interleaved[:, ::2] = changed
        with shared_graphs():
            # Depths 1, 6, 2 (a prefix), 9 (deeper), then 1 again from the deeper graph.
            for method, k in [("tomek", 1), ("enn", 6), ("enn", 2), ("enn", 9), ("tomek", 1)]:
                check(method, k, X)
            check("enn", 6, changed)
            # Non-contiguous views: the changed values strided, and X's rows reversed.
            check("enn", 6, interleaved[:, ::2])
            check("enn", 6, X[::-1])

    def test_threads_share_graphs(self):
        """Eight threads, each in its own scope, clean six tables at rising and falling depths."""
        tables = [grid_data(seed, n=150, n_labels=3, minority=0.4) for seed in range(6)]
        steps = [("enn", 3), ("tomek", 1), ("enn", 8), ("enn", 1), ("enn", 5)]
        expected = [[Balancer(m, k=k).fit_resample(X, y) for m, k in steps] for X, y in tables]
        start = threading.Barrier(8)
        wrong = []

        def work(offset):
            with shared_graphs():
                start.wait(timeout=60)
                for t, (X, y) in enumerate(tables):
                    # Each thread walks the depths from its own starting step.
                    for s in range(len(steps)):
                        s = (s + offset) % len(steps)
                        Xt, yt = Balancer(steps[s][0], k=steps[s][1]).fit_resample(X, y)
                        Xe, ye = expected[t][s]
                        if not (np.array_equal(Xt, Xe) and np.array_equal(yt, ye)):
                            wrong.append((offset, t, s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert neighbors._scopes == 0 and not neighbors._graphs


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
        np.testing.assert_array_equal(model._neighbors(Q), stable_k(distances(Q, X), 7))

    def test_knn_model_keeps_training_norms_out_of_its_state(self, monkeypatch):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(50, 3)) * 1e3
        model = KNNModel("regression", k=4).fit(X, rng.normal(size=50))
        Q = rng.normal(size=(20, 3)) * 1e3
        assert model._bank.tobytes() == bank(X).tobytes()
        np.testing.assert_array_equal(model._neighbors(Q), nearest(Q, X, 4))
        state = model.to_state()
        assert list(state["fitted"]) == ["X_", "y_", "n_classes_"]
        assert "_bank" not in repr(state)
        loaded = KNNModel.from_state(state)
        assert loaded._bank.tobytes() == model._bank.tobytes()
        batch = model.predict(Q)
        assert loaded.predict(Q).tobytes() == batch.tobytes()

        def rebuilt(X):
            raise AssertionError("the bank was rebuilt")

        monkeypatch.setattr("tabcash.neighbors._bank", rebuilt)
        for i in range(len(Q)):
            assert loaded.predict(Q[i : i + 1]).tobytes() == batch[i : i + 1].tobytes()
