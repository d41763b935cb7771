"""Linear family: ridge least squares, logistic, and log-link count GLM."""

from __future__ import annotations

import numpy as np

from ..base import as_float_vector, check_fitted, check_matching_width
from ..errors import ConfigurationError, FitError, TaskError
from ..metrics import poisson_deviance_terms
from .simple import Model, _resolve_n_classes

_ETA_CLIP = 30.0


def _with_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((len(X), 1)), X])


class RidgeRegression(Model):
    """Closed-form L2-penalized least squares, intercept unpenalized."""

    method = "ridge"
    _fitted = ("coef_", "n_features_")

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ConfigurationError("alpha must be nonnegative")
        self.alpha = alpha
        self.coef_: np.ndarray | None = None

    def fit(self, X, y) -> "RidgeRegression":
        X, y = self._check_fit_inputs(X, y)
        y = as_float_vector(y)
        A = _with_intercept(X)
        penalty = np.full(A.shape[1], self.alpha)
        penalty[0] = 0.0
        try:
            self.coef_ = np.linalg.solve(A.T @ A + np.diag(penalty), A.T @ y)
        except np.linalg.LinAlgError:
            raise FitError(
                "singular normal equations; retry with alpha > 0"
            ) from None
        self.n_features_ = X.shape[1]
        return self

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        return _with_intercept(X) @ self.coef_


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _binary_nll(w, A, y, alpha):
    z = A @ w
    nll = float(np.mean(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * alpha * float(w[1:] @ w[1:]) / len(y)


def _fit_binary_logistic(A, y, alpha, max_iter, tol):
    """Gradient descent with Armijo backtracking on the mean NLL."""
    n = len(y)
    w = np.zeros(A.shape[1])
    f = _binary_nll(w, A, y, alpha)
    step = 1.0
    for _ in range(max_iter):
        p = _sigmoid(A @ w)
        grad = A.T @ (p - y) / n
        grad[1:] += alpha * w[1:] / n
        g2 = float(grad @ grad)
        if np.sqrt(g2) <= tol:
            break
        t = min(step * 2.0, 1e6)
        for _ in range(60):
            trial = w - t * grad
            f_trial = _binary_nll(trial, A, y, alpha)
            if f_trial <= f - 1e-4 * t * g2:
                break
            t *= 0.5
        else:
            break
        w, f, step = trial, f_trial, t
    return w


class LogisticModel(Model):
    """L2-regularized logistic regression; multiclass is one-vs-rest.

    One-vs-rest sigmoid scores are normalized by their row sum to give the
    probability table.
    """

    method = "logistic"
    is_classifier = True
    _fitted = ("coef_", "n_classes_", "n_features_")

    def __init__(self, alpha: float = 1e-4, max_iter: int = 500, tol: float = 1e-6):
        if alpha < 0:
            raise ConfigurationError("alpha must be nonnegative")
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None

    def fit(self, X, y, n_classes: int | None = None) -> "LogisticModel":
        X, y = self._check_fit_inputs(X, y)
        y = y.astype(int)
        self.n_classes_ = _resolve_n_classes(y, n_classes)
        self.n_features_ = X.shape[1]
        A = _with_intercept(X)
        if self.n_classes_ == 2:
            w = _fit_binary_logistic(A, (y == 1).astype(float), self.alpha, self.max_iter, self.tol)
            self.coef_ = w.reshape(1, -1)
        else:
            rows = [
                _fit_binary_logistic(A, (y == c).astype(float), self.alpha, self.max_iter, self.tol)
                for c in range(self.n_classes_)
            ]
            self.coef_ = np.vstack(rows)
        return self

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "coef_")
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        A = _with_intercept(X)
        if self.n_classes_ == 2:
            p1 = _sigmoid(A @ self.coef_[0])
            return np.column_stack([1.0 - p1, p1])
        scores = _sigmoid(A @ self.coef_.T)
        sums = scores.sum(axis=1, keepdims=True)
        uniform = np.full_like(scores, 1.0 / self.n_classes_)
        return np.where(sums > 0, scores / np.where(sums > 0, sums, 1.0), uniform)

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


def _poisson_deviance_total(y: np.ndarray, mu: np.ndarray) -> float:
    return float(2.0 * poisson_deviance_terms(y, mu).sum())


class PoissonGLM(Model):
    """Log-link count regression fitted by iteratively reweighted least squares.

    The response must be nonnegative and integer valued. An optional
    per-row offset (e.g. log exposure) enters the linear predictor with a
    fixed unit coefficient. Step halving (up to 10 times) protects against
    deviance increases; iteration stops when the total deviance changes by
    less than ``tol`` or after ``max_iter`` rounds. Predictions are
    exp(linear predictor), hence always strictly positive.
    """

    method = "poisson_glm"
    _fitted = ("coef_", "n_features_")

    def __init__(self, max_iter: int = 100, tol: float = 1e-8):
        if max_iter < 1:
            raise ConfigurationError("max_iter must be at least 1")
        self.max_iter = max_iter
        self.tol = tol
        self.coef_: np.ndarray | None = None

    def fit(self, X, y, offset=None) -> "PoissonGLM":
        X, y = self._check_fit_inputs(X, y)
        y = as_float_vector(y)
        if (y < 0).any() or (y != np.round(y)).any():
            raise TaskError("count regression requires nonnegative integer responses")
        off = np.zeros(len(y)) if offset is None else as_float_vector(offset, "offset")
        if len(off) != len(y):
            raise ConfigurationError("offset length does not match y")
        A = _with_intercept(X)
        beta = np.zeros(A.shape[1])
        beta[0] = np.log(max(float(y.mean()), 1e-8))
        eta = np.clip(A @ beta + off, -_ETA_CLIP, _ETA_CLIP)
        mu = np.exp(eta)
        dev = _poisson_deviance_total(y, mu)
        for _ in range(self.max_iter):
            z = (eta - off) + (y - mu) / mu
            W = mu
            AtW = A.T * W
            try:
                proposal = np.linalg.solve(AtW @ A, AtW @ z)
            except np.linalg.LinAlgError:
                raise FitError("singular weighted least-squares system") from None
            step = 1.0
            accepted = False
            for _ in range(10):
                candidate = beta + step * (proposal - beta)
                eta_c = np.clip(A @ candidate + off, -_ETA_CLIP, _ETA_CLIP)
                mu_c = np.exp(eta_c)
                dev_c = _poisson_deviance_total(y, mu_c)
                if np.isfinite(dev_c) and dev_c <= dev:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
            converged = abs(dev - dev_c) < self.tol
            beta, eta, mu, dev = candidate, eta_c, mu_c, dev_c
            if converged:
                break
        self.coef_ = beta
        self.n_features_ = X.shape[1]
        return self

    def predict(self, X, offset=None) -> np.ndarray:
        check_fitted(self, "coef_")
        X = self._check_X(X)
        check_matching_width(X, self.n_features_)
        off = np.zeros(len(X)) if offset is None else as_float_vector(offset, "offset")
        eta = np.clip(_with_intercept(X) @ self.coef_ + off, -_ETA_CLIP, _ETA_CLIP)
        return np.exp(eta)
