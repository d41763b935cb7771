"""Baseline and instance-based models."""

from __future__ import annotations

import numpy as np

from ..base import (
    Component,
    as_float_matrix,
    as_float_vector,
    check_fitted,
    check_matching_width,
    check_no_missing,
)
from ..errors import ConfigurationError
from ..metrics import PredictionBundle
from ..neighbors import nearest, squared_norms


class Model(Component):
    """Common fit/predict surface for the zoo."""

    method = "base"
    is_classifier = False

    def fit(self, X, y):  # pragma: no cover - interface
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def predict_proba(self, X) -> np.ndarray:
        raise ConfigurationError(f"{type(self).__name__} has no probabilities")

    def predict_bundle(self, X) -> PredictionBundle:
        if self.is_classifier:
            probs = self.predict_proba(X)
            return PredictionBundle(values=np.argmax(probs, axis=1), probabilities=probs)
        return PredictionBundle.regression(self.predict(X))

    def _check_X(self, X) -> np.ndarray:
        X = as_float_matrix(X)
        check_no_missing(X)
        return X

    def _check_fit_inputs(self, X, y) -> tuple[np.ndarray, np.ndarray]:
        X = self._check_X(X)
        y = np.asarray(y)
        if len(y) != len(X):
            raise ConfigurationError("X and y row counts differ")
        if len(y) == 0:
            raise ConfigurationError("cannot fit on an empty dataset")
        return X, y


def _resolve_n_classes(y: np.ndarray, n_classes: int | None) -> int:
    found = int(np.max(y)) + 1 if len(y) else 0
    if n_classes is None:
        return max(found, 2)
    if n_classes < found:
        raise ConfigurationError("n_classes is below the largest label seen")
    return n_classes


class DummyModel(Model):
    """Predicts the training mean (regression) or class frequencies."""

    method = "dummy"
    _fitted = ("mean_", "frequencies_", "n_features_")

    def __init__(self, task: str = "regression"):
        if task not in ("regression", "classification"):
            raise ConfigurationError(f"unknown task {task!r}")
        self.task = task
        self.mean_: float | None = None
        self.frequencies_: np.ndarray | None = None

    @property
    def is_classifier(self) -> bool:
        return self.task == "classification"

    def fit(self, X, y, n_classes: int | None = None) -> "DummyModel":
        X, y = self._check_fit_inputs(X, y)
        self.n_features_ = X.shape[1]
        if self.task == "regression":
            self.mean_ = float(as_float_vector(y).mean())
        else:
            y = y.astype(int)
            k = _resolve_n_classes(y, n_classes)
            counts = np.bincount(y, minlength=k).astype(float)
            self.frequencies_ = counts / counts.sum()
            self.mean_ = 0.0
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "mean_")
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        if self.task == "regression":
            return np.full(len(X), self.mean_)
        return np.full(len(X), int(np.argmax(self.frequencies_)), dtype=int)

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "frequencies_")
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        return np.tile(self.frequencies_, (len(X), 1))


class KNNModel(Model):
    """k-nearest-neighbor prediction with lower-row-index tie breaking.

    ``neighbors.nearest`` ranks training rows by exact Euclidean distance,
    ties going to the lower training row index. The squared norms of the
    training rows are derived once per fit or load, not saved.
    """

    method = "knn"
    _fitted = ("X_", "y_", "n_classes_")

    def __init__(self, task: str = "regression", k: int = 5):
        if task not in ("regression", "classification"):
            raise ConfigurationError(f"unknown task {task!r}")
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        self.task = task
        self.k = k
        self.X_: np.ndarray | None = None

    @property
    def is_classifier(self) -> bool:
        return self.task == "classification"

    def fit(self, X, y, n_classes: int | None = None) -> "KNNModel":
        X, y = self._check_fit_inputs(X, y)
        self.X_ = X.copy()
        if self.task == "classification":
            self.y_ = y.astype(int)
            self.n_classes_ = _resolve_n_classes(self.y_, n_classes)
        else:
            self.y_ = as_float_vector(y).copy()
            self.n_classes_ = 0
        self._derive()
        return self

    def _derive(self) -> None:
        self._sq = squared_norms(self.X_)

    def _neighbors(self, X: np.ndarray) -> np.ndarray:
        return nearest(X, self.X_, min(self.k, len(self.X_)), sq=self._sq)

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "X_")
        X = self._check_X(X)
        check_matching_width(X, self.X_.shape[1])
        if self.task == "classification":
            return np.argmax(self.predict_proba(X), axis=1)
        return self.y_[self._neighbors(X)].mean(axis=1)

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "X_")
        X = self._check_X(X)
        check_matching_width(X, self.X_.shape[1])
        neighbors = self._neighbors(X)
        votes = np.zeros((len(X), self.n_classes_))
        for col in range(neighbors.shape[1]):
            labels = self.y_[neighbors[:, col]]
            votes[np.arange(len(X)), labels] += 1.0
        return votes / neighbors.shape[1]
