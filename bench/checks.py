"""Correctness checks made apart from tabcash: own formulas, own truth.

Nothing here calls the program's metric code. The Poisson deviance and the
AUC are written out again, the true rates come from the coefficients the
benchmark chose, and the Bayes-optimal score comes from the geometry of
the two generated blobs.
"""

from __future__ import annotations

import math

import numpy as np

# The served classifier's test AUC may trail the Bayes-optimal score's AUC
# on the same rows by at most this much.
AUC_GAP = 0.03
PROBABILITY_TOL = 1e-12


def poisson_deviance(y, mu) -> float:
    """Mean Poisson deviance, 2/n * sum(mu - y + y*ln(y/mu)), with 0*ln 0 = 0."""
    total = 0.0
    for yi, mi in zip(y, mu):
        yi, mi = float(yi), float(mi)
        term = mi - yi
        if yi > 0:
            term += yi * math.log(yi / mi)
        total += term
    return 2.0 * total / len(y)


def rank_count_auc(labels, scores) -> float:
    """Share of (positive, negative) pairs ranked correctly; ties count half."""
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=float)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs both classes")
    wins = 0.0
    for p in pos:
        wins += float((neg < p).sum()) + 0.5 * float((neg == p).sum())
    return wins / (len(pos) * len(neg))


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_history(records, max_evals: int) -> None:
    ks = [r["k"] for r in records]
    require(ks == list(range(max_evals)),
            f"history trial indices {ks} are not 0..{max_evals - 1}")


def check_poisson(values, y_test, y_train, true_rates, factor: float) -> dict:
    """Positive finite rates, better than the training mean, near the truth.

    The true rates are the best any model can do in expectation, so the
    served model's test deviance must stay within ``factor`` of theirs.
    """
    values = np.asarray(values, dtype=float)
    require(bool(np.isfinite(values).all()), "a Poisson prediction is not finite")
    require(bool((values > 0).all()), "a Poisson prediction is not positive")
    model = poisson_deviance(y_test, values)
    null = poisson_deviance(y_test, np.full(len(y_test), float(np.mean(y_train))))
    truth = poisson_deviance(y_test, true_rates)
    require(model < null, f"test deviance {model:.6g} is not below the intercept-only {null:.6g}")
    require(model <= factor * truth,
            f"test deviance {model:.6g} exceeds {factor} x true-rate deviance {truth:.6g}")
    return {"test_deviance": model, "null_deviance": null, "true_deviance": truth}


def check_probabilities(probabilities) -> None:
    p = np.asarray(probabilities, dtype=float)
    require(bool(((p >= 0) & (p <= 1)).all()), "a probability lies outside [0, 1]")
    require(bool((np.abs(p.sum(axis=1) - 1.0) <= PROBABILITY_TOL).all()),
            "a probability row does not sum to 1")


def check_auc(probabilities, y_test, X_numeric) -> dict:
    check_probabilities(probabilities)
    model = rank_count_auc(y_test, np.asarray(probabilities)[:, 1])
    bayes = rank_count_auc(y_test, X_numeric.sum(axis=1))
    require(model >= bayes - AUC_GAP,
            f"test AUC {model:.4f} trails the Bayes-optimal {bayes:.4f} by more than {AUC_GAP}")
    return {"test_auc": model, "bayes_auc": bayes}


def check_member_mean(ensemble_values, member_values, rel_tol: float = 1e-12) -> None:
    """Ensemble output equals the mean of its members' outputs."""
    acc = np.zeros(len(ensemble_values))
    for values in member_values:
        acc += values
    expected = acc / len(member_values)
    require(bool(np.allclose(ensemble_values, expected, rtol=rel_tol, atol=0.0)),
            "ensemble prediction is not the mean of its members' predictions")


def same_bundle(a, b) -> bool:
    """Bit-identical values and (if any) probabilities."""
    if not np.array_equal(a.values, b.values):
        return False
    if a.probabilities is None or b.probabilities is None:
        return a.probabilities is None and b.probabilities is None
    return bool(np.array_equal(a.probabilities, b.probabilities))
