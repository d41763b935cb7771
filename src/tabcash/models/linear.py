"""Linear family: ridge least squares, logistic, and log-link count GLM.

Ridge has a closed form. The logistic and count models share one loop,
``_irls``: penalized IRLS (Newton's method for a canonical link) with step
halving, minimising ``deviance + beta @ (penalty * beta)``; ``tol`` bounds
the change in that penalized deviance between rounds. All three predict
through ``_linear``, summed in column order, so a lone row gets the bits
it gets in any batch.
"""

from __future__ import annotations

import numpy as np

from ..base import as_float_vector
from ..errors import ConfigurationError, FitError, TaskError
from ..metrics import poisson_deviance_terms
from .simple import Model

_ETA_CLIP = 30.0


def _with_intercept(X: np.ndarray) -> np.ndarray:
    return np.hstack([np.ones((len(X), 1)), X])


def _linear(X: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """``coef[0] + X[:, 0]*coef[1] + ...``, one column at a time."""
    if len(X) == 1:
        # Python floats round as numpy does, without per-column array overhead.
        total = float(coef[0])
        for x, c in zip(X[0].tolist(), coef[1:].tolist()):
            total += x * c
        return np.array([total])
    out = np.full(len(X), float(coef[0]))
    for j in range(X.shape[1]):
        out += X[:, j] * coef[j + 1]
    return out


def _irls(A, y, beta, mean, variance, half_deviance, penalty, max_iter, tol, offset=0.0):
    """Minimise ``2 * sum(half_deviance(y, mean(eta))) + beta @ (penalty * beta)`` from ``beta``.

    ``eta = A @ beta + offset`` is clipped to +-30. A step is halved up to
    10 times until that sum does not rise; the loop stops when no step
    does, when the sum changes by less than ``tol``, or after ``max_iter``.
    """

    def evaluate(b):
        eta = np.clip(A @ b + offset, -_ETA_CLIP, _ETA_CLIP)
        mu = mean(eta)
        return eta, mu, 2.0 * float(half_deviance(y, mu).sum()) + float(b @ (penalty * b))

    eta, mu, dev = evaluate(beta)
    for _ in range(max_iter):
        W = variance(mu)
        z = (eta - offset) + (y - mu) / W
        AtW = A.T * W
        lhs, rhs = AtW @ A + np.diag(penalty), AtW @ z
        try:
            proposal = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            # Rank deficient, as when a complete column's one-hot block sums
            # to the intercept column: take the minimum-norm solution.
            proposal = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        for halvings in range(10):
            candidate = beta + 0.5**halvings * (proposal - beta)
            eta_c, mu_c, dev_c = evaluate(candidate)
            if np.isfinite(dev_c) and dev_c <= dev:
                break
        else:
            break
        beta, eta, mu, previous, dev = candidate, eta_c, mu_c, dev, dev_c
        if abs(previous - dev) < tol:
            break
    return beta


class RidgeRegression(Model):
    """Closed-form L2-penalized least squares, intercept unpenalized."""

    method = "ridge"
    _fitted = ("coef_", "n_features_")

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ConfigurationError("alpha must be nonnegative")
        self.alpha = alpha

    def fit(self, X, y) -> "RidgeRegression":
        X, y = self._fit_inputs(X, y)
        A = _with_intercept(X)
        penalty = np.full(A.shape[1], self.alpha)
        penalty[0] = 0.0
        try:
            self.coef_ = np.linalg.solve(A.T @ A + np.diag(penalty), A.T @ y)
        except np.linalg.LinAlgError:
            raise FitError(
                "singular normal equations; retry with alpha > 0"
            ) from None
        return self

    def predict(self, X) -> np.ndarray:
        return _linear(self._inputs(X), self.coef_)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _binomial_half_deviance(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    return -np.log(np.where(y > 0, mu, 1.0 - mu))


class LogisticModel(Model):
    """L2-regularized logistic regression; multiclass is one-vs-rest.

    Each class minimises its binomial deviance plus ``alpha`` times its squared
    non-intercept coefficients; ``tol`` bounds the change in that sum per round.
    One-vs-rest sigmoid scores are normalized by their row sum.
    """

    method = "logistic"
    task = "classification"
    _fitted = ("coef_", "n_classes_", "n_features_")

    def __init__(self, alpha: float = 1e-4, max_iter: int = 500, tol: float = 1e-6):
        if alpha < 0:
            raise ConfigurationError("alpha must be nonnegative")
        if max_iter < 1:
            raise ConfigurationError("max_iter must be at least 1")
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X, y, n_classes: int | None = None) -> "LogisticModel":
        X, y = self._fit_inputs(X, y, n_classes)
        A = _with_intercept(X)
        penalty = np.full(A.shape[1], self.alpha)
        penalty[0] = 0.0
        classes = [1] if self.n_classes_ == 2 else range(self.n_classes_)
        self.coef_ = np.vstack([
            _irls(A, (y == c).astype(float), np.zeros(A.shape[1]), _sigmoid,
                  lambda mu: mu * (1.0 - mu), _binomial_half_deviance, penalty,
                  self.max_iter, self.tol)
            for c in classes
        ])
        return self

    def predict_proba(self, X) -> np.ndarray:
        X = self._inputs(X)
        if self.n_classes_ == 2:
            p1 = _sigmoid(_linear(X, self.coef_[0]))
            return np.column_stack([1.0 - p1, p1])
        scores = np.column_stack([_sigmoid(_linear(X, coef)) for coef in self.coef_])
        sums = scores.sum(axis=1, keepdims=True)
        uniform = np.full_like(scores, 1.0 / self.n_classes_)
        return np.where(sums > 0, scores / np.where(sums > 0, sums, 1.0), uniform)

    def predict(self, X) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


class PoissonGLM(Model):
    """Log-link count regression fitted by unpenalized IRLS.

    The response must be nonnegative and integer valued. An optional
    per-row offset (e.g. log exposure) enters the linear predictor with a
    fixed unit coefficient. Predictions are exp(linear predictor), hence
    always strictly positive.
    """

    method = "poisson_glm"
    takes_offset = True
    _fitted = ("coef_", "n_features_")

    def __init__(self, max_iter: int = 100, tol: float = 1e-8):
        if max_iter < 1:
            raise ConfigurationError("max_iter must be at least 1")
        self.max_iter = max_iter
        self.tol = tol

    def fit(self, X, y, offset=None) -> "PoissonGLM":
        X, y = self._fit_inputs(X, y)
        if (y < 0).any() or (y != np.round(y)).any():
            raise TaskError("count regression requires nonnegative integer responses")
        off = np.zeros(len(y)) if offset is None else as_float_vector(offset, "offset")
        if len(off) != len(y):
            raise ConfigurationError("offset length does not match y")
        A = _with_intercept(X)
        beta = np.zeros(A.shape[1])
        beta[0] = np.log(max(float(y.mean()), 1e-8))
        self.coef_ = _irls(A, y, beta, np.exp, lambda mu: mu, poisson_deviance_terms,
                           np.zeros(A.shape[1]), self.max_iter, self.tol, off)
        return self

    def predict(self, X, offset=None) -> np.ndarray:
        X = self._inputs(X)
        off = np.zeros(len(X)) if offset is None else as_float_vector(offset, "offset")
        if len(off) != len(X):
            raise ConfigurationError("offset length does not match X")
        eta = np.clip(_linear(X, self.coef_) + off, -_ETA_CLIP, _ETA_CLIP)
        return np.exp(eta)
