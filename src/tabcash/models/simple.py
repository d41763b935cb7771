"""Baseline and instance-based models, and the contract every model keeps."""

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


def check_task(task: str) -> str:
    """``task`` if it is 'regression' or 'classification'."""
    if task not in ("regression", "classification"):
        raise ConfigurationError(f"unknown task {task!r}")
    return task


class Model(Component):
    """Common fit/predict contract for the zoo (see the package docstring).

    ``task`` is a class attribute unless the model takes it as a parameter.
    """

    method = "base"
    task = "regression"

    @property
    def is_classifier(self) -> bool:
        return self.task == "classification"

    def fit(self, X, y):  # pragma: no cover - interface
        raise NotImplementedError

    def predict(self, X) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def predict_proba(self, X) -> np.ndarray:
        self._inputs(X, proba=True)
        raise NotImplementedError  # pragma: no cover - a classifier defines its own

    def predict_bundle(self, X) -> PredictionBundle:
        if self.is_classifier:
            probs = self.predict_proba(X)
            return PredictionBundle(values=np.argmax(probs, axis=1), probabilities=probs)
        return PredictionBundle.regression(self.predict(X))

    def _fit_inputs(self, X, y, n_classes: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Checked float ``X``, and ``y`` as int class codes or floats.

        Sets ``n_features_`` and ``n_classes_``: at least 2 and above every
        label for a classifier, 0 for a regressor.
        """
        X = as_float_matrix(X)
        check_no_missing(X)
        y = np.asarray(y)
        if len(y) != len(X):
            raise ConfigurationError("X and y row counts differ")
        if len(y) == 0:
            raise ConfigurationError("cannot fit on an empty dataset")
        if self.is_classifier:
            y = y.astype(int)
            found = int(np.max(y)) + 1
            if n_classes is None:
                n_classes = max(found, 2)
            elif n_classes < found:
                raise ConfigurationError("n_classes is below the largest label seen")
            self.n_classes_ = n_classes
        else:
            y = as_float_vector(y)
            self.n_classes_ = 0
        self.n_features_ = X.shape[1]
        return X, y

    def _inputs(self, X, proba: bool = False) -> np.ndarray:
        """Checked float ``X`` for a fitted model of the same width.

        With ``proba``, a regressor raises: it has no probabilities.
        """
        if proba and not self.is_classifier:
            raise ConfigurationError(f"{type(self).__name__} has no probabilities")
        check_fitted(self, self._fitted[0])
        X = as_float_matrix(X)
        check_no_missing(X)
        check_matching_width(X, self.n_features_)
        return X


class DummyModel(Model):
    """Predicts the training mean (regression) or class frequencies."""

    method = "dummy"
    _fitted = ("mean_", "frequencies_", "n_features_")

    def __init__(self, task: str = "regression"):
        self.task = check_task(task)
        self.frequencies_: np.ndarray | None = None

    def fit(self, X, y, n_classes: int | None = None) -> "DummyModel":
        X, y = self._fit_inputs(X, y, n_classes)
        if self.is_classifier:
            counts = np.bincount(y, minlength=self.n_classes_).astype(float)
            self.frequencies_ = counts / counts.sum()
            self.mean_ = 0.0
        else:
            self.mean_ = float(y.mean())
        return self

    def predict(self, X) -> np.ndarray:
        X = self._inputs(X)
        if self.is_classifier:
            return np.full(len(X), int(np.argmax(self.frequencies_)), dtype=int)
        return np.full(len(X), self.mean_)

    def predict_proba(self, X) -> np.ndarray:
        X = self._inputs(X, proba=True)
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
        if k < 1:
            raise ConfigurationError("k must be at least 1")
        self.task = check_task(task)
        self.k = k

    def fit(self, X, y, n_classes: int | None = None) -> "KNNModel":
        X, y = self._fit_inputs(X, y, n_classes)
        self.X_ = X.copy()
        self.y_ = y.copy()
        self._derive()
        return self

    def _derive(self) -> None:
        self._sq = squared_norms(self.X_)
        self.n_features_ = self.X_.shape[1]

    def _neighbors(self, X: np.ndarray) -> np.ndarray:
        return nearest(X, self.X_, min(self.k, len(self.X_)), sq=self._sq)

    def predict(self, X) -> np.ndarray:
        if self.is_classifier:
            return np.argmax(self.predict_proba(X), axis=1)
        X = self._inputs(X)
        return self.y_[self._neighbors(X)].mean(axis=1)

    def predict_proba(self, X) -> np.ndarray:
        X = self._inputs(X, proba=True)
        neighbors = self._neighbors(X)
        votes = np.zeros((len(X), self.n_classes_))
        for col in range(neighbors.shape[1]):
            labels = self.y_[neighbors[:, col]]
            votes[np.arange(len(X)), labels] += 1.0
        return votes / neighbors.shape[1]
