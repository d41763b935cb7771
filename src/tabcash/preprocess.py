"""Fit/transform stages applied before balancing and modeling.

Stage order in a pipeline is encode -> impute -> (balance) -> scale ->
select -> model. None of these stages changes the row count. All fitted
statistics are frozen at fit time, so transforming the training table
again reproduces it bit for bit.
"""

from __future__ import annotations

import numpy as np

from .base import (
    Component,
    as_float_matrix,
    check_fitted,
    check_matching_width,
    check_no_missing,
)
from .errors import ConfigurationError, ImputationError
from .neighbors import nearest
from .tabular import CATEGORICAL, NUMERIC

ENCODE_METHODS = ("ordinal", "onehot")
IMPUTE_METHODS = ("mean", "median", "mode", "constant", "knn")
SCALE_METHODS = ("none", "standardize", "minmax", "robust")
SELECT_METHODS = ("none", "variance", "topk_corr")

_EPS = 1e-12


class Encoder(Component):
    """Categorical-to-numeric encoding; numeric columns pass through.

    Ordinal codes follow first appearance in the fitted rows; a category
    unseen at fit time maps to the reserved code ``n_categories``. One-hot
    emits one 0/1 column per fitted category; unseen or missing values
    produce an all-zero block. Missing ordinal cells stay NaN for the
    imputer.

    The encoded matrix is column-major (Fortran order). Column-wise
    stages run fastest on it, and it is the layout the selector's column
    gather gives the model. A model's matrix products round by layout,
    so predictions keep their bits whether or not the selector copies.
    """

    _fitted = ("columns_", "out_names_")

    def __init__(self, method: str = "ordinal"):
        if method not in ENCODE_METHODS:
            raise ConfigurationError(f"unknown encoder {method!r}")
        self.method = method
        self.columns_: list[dict] | None = None
        self.out_names_: list[str] | None = None

    def fit(self, X: np.ndarray, schema) -> "Encoder":
        if X.ndim != 2 or X.shape[1] != len(schema):
            raise ConfigurationError("feature table width does not match schema")
        self.columns_ = []
        self.out_names_ = []
        for j, col in enumerate(schema):
            if col.kind == NUMERIC:
                self.columns_.append({"kind": NUMERIC, "name": col.name})
                self.out_names_.append(col.name)
                continue
            seen: dict[str, int] = {}
            for cell in X[:, j]:
                if cell is not None and cell not in seen:
                    seen[cell] = len(seen)
            self.columns_.append(
                {"kind": CATEGORICAL, "name": col.name, "mapping": seen}
            )
            if self.method == "ordinal":
                self.out_names_.append(col.name)
            else:
                self.out_names_.extend(f"{col.name}={c}" for c in seen)
        self._derive()
        return self

    def _derive(self) -> None:
        """Output layout from ``columns_``: where each input column is written.

        ``_numeric`` pairs a (source, target) slice for each run of adjacent
        numeric columns, so they are copied by slices: a fancy-index gather
        of columns is many times slower. ``_categorical`` lists (source
        column, first output column, mapping). Built once per fit or load,
        since a one-row transform cannot afford it.
        """
        self._numeric, self._categorical = [], []
        n_columns = len(self.columns_)
        breaks = [j for j, info in enumerate(self.columns_) if info["kind"] != NUMERIC]
        width = start = 0
        for stop in breaks + [n_columns]:
            if start < stop:
                self._numeric.append((slice(start, stop), slice(width, width + stop - start)))
                width += stop - start
            if stop < n_columns:
                mapping = self.columns_[stop]["mapping"]
                self._categorical.append((stop, width, mapping))
                width += 1 if self.method == "ordinal" else max(len(mapping), 1)
            start = stop + 1
        self._width = width

    def transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, "columns_")
        check_matching_width(X, len(self.columns_))
        n = X.shape[0]
        out = np.zeros((n, self._width), order="F")
        for src, dst in self._numeric:
            out[:, dst] = X[:, src]
        for j, first, mapping in self._categorical:
            if self.method == "ordinal":
                unknown = len(mapping)
                out[:, first] = [np.nan if c is None else mapping.get(c, unknown) for c in X[:, j]]
            else:
                codes = np.fromiter((mapping.get(c, -1) for c in X[:, j]), np.intp, n)
                hit = np.flatnonzero(codes >= 0)
                out[hit, first + codes[hit]] = 1.0
        return out

    def fit_transform(self, X: np.ndarray, schema) -> np.ndarray:
        return self.fit(X, schema).transform(X)


def _column_mode(values: np.ndarray) -> float:
    uniq, counts = np.unique(values, return_counts=True)
    return float(uniq[np.argmax(counts)])


class Imputer(Component):
    """Fill missing cells with statistics frozen on the fitted table.

    ``knn`` fills a cell with the mean of its column over the k nearest
    complete training rows, measured by Euclidean distance on the query
    row's non-missing coordinates; distance ties prefer the lower row
    index. Rows are grouped by missing pattern and searched with
    ``neighbors.py``, which sums squared differences column by column in
    column order. Rows with no usable coordinates, and fits with no
    complete rows, fall back to the column mean.
    """

    _fitted = ("statistics_", "complete_rows_")

    def __init__(self, method: str = "mean", value: float = 0.0, k: int = 5):
        if method not in IMPUTE_METHODS:
            raise ConfigurationError(f"unknown imputer {method!r}")
        if k < 1:
            raise ConfigurationError("imputer k must be at least 1")
        self.method = method
        self.value = value
        self.k = k
        self.statistics_: np.ndarray | None = None
        self.complete_rows_: np.ndarray | None = None

    def fit(self, X) -> "Imputer":
        X = as_float_matrix(X)
        n, w = X.shape
        stats = np.empty(w, dtype=float)
        if self.method == "constant":
            stats.fill(self.value)
        else:
            for j in range(w):
                col = X[:, j]
                present = col[~np.isnan(col)]
                if present.size == 0:
                    raise ImputationError(
                        f"column {j} is entirely missing; no statistic exists"
                    )
                if self.method == "median":
                    stats[j] = float(np.median(present))
                elif self.method == "mode":
                    stats[j] = _column_mode(present)
                else:
                    stats[j] = float(present.mean())
        self.statistics_ = stats
        if self.method == "knn":
            complete = ~np.isnan(X).any(axis=1)
            self.complete_rows_ = X[complete].copy()
        else:
            self.complete_rows_ = None
        return self

    def _fill_knn(self, X: np.ndarray) -> np.ndarray:
        # Fills X in place: a row's present cells, the only ones read, are
        # never written.
        bank = self.complete_rows_
        missing = np.isnan(X)
        incomplete = np.flatnonzero(missing.any(axis=1))
        patterns, group = np.unique(missing[incomplete], axis=0, return_inverse=True)
        for g, pattern in enumerate(patterns):
            rows = incomplete[group.ravel() == g]
            holes = np.flatnonzero(pattern)
            present = ~pattern
            if bank is None or len(bank) == 0 or not present.any():
                X[np.ix_(rows, holes)] = self.statistics_[holes]
                continue
            k = min(self.k, len(bank))
            ids = nearest(X[np.ix_(rows, present)], bank[:, present], k)
            X[np.ix_(rows, holes)] = bank[:, holes][ids].mean(axis=1)
        return X

    def transform(self, X, copy: bool = True) -> np.ndarray:
        """Filled table; ``copy=False`` fills a float64 ``X`` in place."""
        check_fitted(self, "statistics_")
        X = as_float_matrix(X)
        check_matching_width(X, len(self.statistics_))
        if copy:
            X = X.copy()
        if self.method == "knn":
            return self._fill_knn(X)
        holes = np.isnan(X)
        X[holes] = np.broadcast_to(self.statistics_, X.shape)[holes]
        return X

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)


class Scaler(Component):
    """Per-column affine rescaling with degenerate-spread guards.

    standardize: (x - mean) / std, std below 1e-12 replaced by 1.
    minmax: (x - min) / (max - min), zero range replaced by 1.
    robust: (x - median) / IQR with linearly interpolated quartiles,
    degenerate IQR replaced by 1.
    """

    _fitted = ("center_", "spread_")

    def __init__(self, method: str = "standardize"):
        if method not in SCALE_METHODS:
            raise ConfigurationError(f"unknown scaler {method!r}")
        self.method = method
        self.center_: np.ndarray | None = None
        self.spread_: np.ndarray | None = None

    def fit(self, X) -> "Scaler":
        X = as_float_matrix(X)
        check_no_missing(X)
        if self.method == "none":
            self.center_ = np.zeros(X.shape[1])
            self.spread_ = np.ones(X.shape[1])
        elif self.method == "standardize":
            self.center_ = X.mean(axis=0)
            self.spread_ = X.std(axis=0)
        elif self.method == "minmax":
            self.center_ = X.min(axis=0)
            self.spread_ = X.max(axis=0) - X.min(axis=0)
        else:
            self.center_ = np.quantile(X, 0.5, axis=0)
            self.spread_ = np.quantile(X, 0.75, axis=0) - np.quantile(X, 0.25, axis=0)
        self.spread_ = np.where(np.abs(self.spread_) < _EPS, 1.0, self.spread_)
        return self

    def transform(self, X, copy: bool = True) -> np.ndarray:
        """Rescaled table; ``copy=False`` rescales a float64 ``X`` in place."""
        check_fitted(self, "spread_")
        X = as_float_matrix(X)
        check_matching_width(X, len(self.spread_))
        out = X - self.center_ if copy else np.subtract(X, self.center_, out=X)
        out /= self.spread_
        return out

    def fit_transform(self, X) -> np.ndarray:
        return self.fit(X).transform(X)


def _sample_variance(X: np.ndarray) -> np.ndarray:
    if X.shape[0] < 2:
        return np.zeros(X.shape[1])
    return X.var(axis=0, ddof=1)


class Selector(Component):
    """Filter-style feature selection producing a kept-column mask.

    ``variance`` keeps columns with sample variance above the threshold;
    ``topk_corr`` keeps the k columns most correlated (absolute Pearson)
    with the response, ties resolved toward the lower column index. At
    least one column is always kept; if a rule would drop everything, the
    highest-variance column survives.
    """

    _fitted = ("mask_",)

    def __init__(self, method: str = "none", threshold: float = 0.0, k: int = 10):
        if method not in SELECT_METHODS:
            raise ConfigurationError(f"unknown selector {method!r}")
        if k < 1:
            raise ConfigurationError("selector k must be at least 1")
        self.method = method
        self.threshold = threshold
        self.k = k
        self.mask_: np.ndarray | None = None

    def fit(self, X, y=None) -> "Selector":
        X = as_float_matrix(X)
        check_no_missing(X)
        n, w = X.shape
        if self.method == "none":
            mask = np.ones(w, dtype=bool)
        elif self.method == "variance":
            mask = _sample_variance(X) > self.threshold
        else:
            if y is None:
                raise ConfigurationError("topk_corr needs the response")
            y = np.asarray(y, dtype=float)
            sx = X.std(axis=0)
            sy = y.std()
            with np.errstate(invalid="ignore", divide="ignore"):
                cov = ((X - X.mean(axis=0)) * (y - y.mean())[:, None]).mean(axis=0)
                corr = np.where((sx > _EPS) & (sy > _EPS), cov / (sx * sy), 0.0)
            k = min(self.k, w)
            order = np.lexsort((np.arange(w), -np.abs(corr)))
            mask = np.zeros(w, dtype=bool)
            mask[order[:k]] = True
        if not mask.any():
            mask = np.zeros(w, dtype=bool)
            mask[int(np.argmax(_sample_variance(X)))] = True
        self.mask_ = mask
        return self

    def transform(self, X, copy: bool = True) -> np.ndarray:
        """Kept columns; ``copy=False`` returns ``X`` itself when all are kept."""
        check_fitted(self, "mask_")
        X = as_float_matrix(X)
        check_matching_width(X, len(self.mask_))
        if not copy and self.mask_.all():
            return X
        return X[:, self.mask_]

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).transform(X)
