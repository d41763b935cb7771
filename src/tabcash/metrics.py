"""Loss functions under a uniform minimization convention.

Every metric reports its conventional raw value; the search engine always
minimizes, so maximize-direction metrics (r2, auc, accuracy, gini) are
negated by :func:`engine_loss`. Metrics that cannot score a prediction
raise :class:`InvalidPredictionError`, which the engine records as an
invalid trial instead of aborting the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base import as_float_vector, check_same_length
from .errors import (
    ContractError,
    DataError,
    InvalidPredictionError,
    RegistrationError,
    UndefinedMetricError,
)

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

PROBABILITY_TOL = 1e-9


@dataclass(frozen=True)
class PredictionBundle:
    """Point predictions plus, for classifiers, a row-stochastic table."""

    values: np.ndarray
    probabilities: np.ndarray | None = None

    def __post_init__(self):
        if self.probabilities is not None:
            p = np.asarray(self.probabilities, dtype=float)
            if p.ndim != 2 or p.shape[0] != len(self.values):
                raise ContractError("probability table must be (n_rows, n_classes)")
            # Each check is negated, so a NaN fails it.
            if not ((p >= -PROBABILITY_TOL).all() and (p <= 1 + PROBABILITY_TOL).all()):
                raise ContractError("probabilities must lie in [0, 1]")
            if not (np.abs(p.sum(axis=1) - 1.0) <= PROBABILITY_TOL).all():
                raise ContractError("probability rows must sum to 1")

    @staticmethod
    def regression(values) -> "PredictionBundle":
        return PredictionBundle(values=np.asarray(values, dtype=float))

    def positive_class_probabilities(self) -> np.ndarray:
        if self.probabilities is None:
            raise UndefinedMetricError("metric needs class probabilities")
        if self.probabilities.shape[1] != 2:
            raise UndefinedMetricError("AUC is defined for binary tasks only")
        return np.asarray(self.probabilities[:, 1], dtype=float)


@dataclass(frozen=True)
class Metric:
    """A named loss with direction and prediction-validity rule."""

    id: str
    direction: str
    needs_probabilities: bool
    fn: Callable[[np.ndarray, PredictionBundle], float]

    def raw(self, y, bundle: PredictionBundle) -> float:
        return float(self.fn(np.asarray(y), bundle))

    def engine_loss(self, y, bundle: PredictionBundle) -> float:
        """Raw value for minimize metrics, negated raw for maximize ones."""
        value = self.raw(y, bundle)
        return value if self.direction == MINIMIZE else -value


def poisson_deviance_terms(y: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Per-row ``mu - y + y*log(y/mu)``, with the log term taken as 0 where y = 0."""
    terms = mu - y
    positive = y > 0
    terms[positive] += y[positive] * np.log(y[positive] / mu[positive])
    return terms


def poisson_deviance(y, yhat) -> float:
    """Mean Poisson deviance 2/n * sum(yhat - y + y*log(y/yhat)).

    Zero counts contribute their analytic limit (the y*log term vanishes).
    Any nonpositive prediction invalidates the whole evaluation.
    """
    y = as_float_vector(y, "y")
    yhat = as_float_vector(yhat, "yhat")
    check_same_length(y, yhat)
    if y.size == 0:
        raise ContractError("empty input")
    if (y < 0).any():
        raise DataError("Poisson deviance requires nonnegative observed values")
    if (yhat <= 0).any() or not np.isfinite(yhat).all():
        raise InvalidPredictionError(
            "Poisson deviance requires strictly positive predictions"
        )
    return float(2.0 * poisson_deviance_terms(y, yhat).mean())


def r2_score(y, yhat) -> float:
    """Coefficient of determination 1 - RSS/TSS (maximize direction)."""
    y = as_float_vector(y, "y")
    yhat = as_float_vector(yhat, "yhat")
    check_same_length(y, yhat)
    if len(y) < 2:
        raise ContractError("r2 needs at least two observations")
    tss = float(np.sum((y - y.mean()) ** 2))
    if tss <= 0.0:
        raise UndefinedMetricError("r2 undefined for a constant response")
    rss = float(np.sum((yhat - y) ** 2))
    return 1.0 - rss / tss


def _average_ranks(p: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank."""
    order = np.argsort(p, kind="mergesort")
    ranks = np.empty(len(p), dtype=float)
    sorted_p = p[order]
    i = 0
    while i < len(p):
        j = i
        while j + 1 < len(p) and sorted_p[j + 1] == sorted_p[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc_score(y, p) -> float:
    """Probability a random positive outranks a random negative; ties 0.5."""
    y = np.asarray(y)
    p = as_float_vector(p, "p")
    check_same_length(y, p, "y", "p")
    pos = y == 1
    neg = y == 0
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both classes present")
    if n_pos + n_neg != len(y):
        raise ContractError("AUC labels must be 0/1")
    ranks = _average_ranks(p)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def mse(y, yhat) -> float:
    y = as_float_vector(y, "y")
    yhat = as_float_vector(yhat, "yhat")
    check_same_length(y, yhat)
    if y.size == 0:
        raise ContractError("empty input")
    return float(np.mean((y - yhat) ** 2))


def mae(y, yhat) -> float:
    y = as_float_vector(y, "y")
    yhat = as_float_vector(yhat, "yhat")
    check_same_length(y, yhat)
    if y.size == 0:
        raise ContractError("empty input")
    return float(np.mean(np.abs(y - yhat)))


def accuracy(y, yhat) -> float:
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    check_same_length(y, yhat)
    if y.size == 0:
        raise ContractError("empty input")
    return float(np.mean(y == yhat))


def gini_score(y, p) -> float:
    """2 * AUC - 1, the rescaled ranking score used in pricing comparisons."""
    return 2.0 * auc_score(y, p) - 1.0


_REGISTRY: dict[str, Metric] = {}


def register_metric(metric: Metric) -> Metric:
    if metric.id in _REGISTRY:
        raise RegistrationError(f"metric {metric.id!r} is already registered")
    if metric.direction not in (MINIMIZE, MAXIMIZE):
        raise RegistrationError(f"unknown direction {metric.direction!r}")
    _REGISTRY[metric.id] = metric
    return metric


def register_custom_metric(
    metric_id: str,
    fn: Callable[[np.ndarray, PredictionBundle], float],
    direction: str,
    needs_probabilities: bool = False,
) -> Metric:
    """Register a user loss; it becomes selectable as objective custom:<id>."""
    return register_metric(
        Metric(
            id=metric_id,
            direction=direction,
            needs_probabilities=needs_probabilities,
            fn=fn,
        )
    )


def get_metric(name: str) -> Metric:
    """Look up a metric id; the 'custom:' prefix is stripped first."""
    key = name.removeprefix("custom:")
    try:
        return _REGISTRY[key]
    except KeyError:
        raise RegistrationError(
            f"unknown metric {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


register_metric(
    Metric(
        "poisson_deviance",
        MINIMIZE,
        needs_probabilities=False,
        fn=lambda y, b: poisson_deviance(y, b.values),
    )
)
register_metric(
    Metric("r2", MAXIMIZE, needs_probabilities=False, fn=lambda y, b: r2_score(y, b.values))
)
register_metric(
    Metric(
        "auc",
        MAXIMIZE,
        needs_probabilities=True,
        fn=lambda y, b: auc_score(y, b.positive_class_probabilities()),
    )
)
register_metric(
    Metric("mse", MINIMIZE, needs_probabilities=False, fn=lambda y, b: mse(y, b.values))
)
register_metric(
    Metric("mae", MINIMIZE, needs_probabilities=False, fn=lambda y, b: mae(y, b.values))
)
register_metric(
    Metric(
        "accuracy",
        MAXIMIZE,
        needs_probabilities=False,
        fn=lambda y, b: accuracy(y, b.values),
    )
)
register_metric(
    Metric(
        "gini",
        MAXIMIZE,
        needs_probabilities=True,
        fn=lambda y, b: gini_score(y, b.positive_class_probabilities()),
    )
)
