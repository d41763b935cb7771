import math

import numpy as np
import pytest

from tabcash.errors import (
    ContractError,
    DataError,
    InvalidPredictionError,
    RegistrationError,
    UndefinedMetricError,
)
from tabcash.metrics import (
    PredictionBundle,
    accuracy,
    auc_score,
    get_metric,
    gini_score,
    mae,
    mse,
    poisson_deviance,
    r2_score,
    register_custom_metric,
)

# Independent oracles: plain-python termwise / pairwise evaluation. They
# stay separate from the vectorized implementations they check.


def oracle_poisson(y, yhat):
    total = 0.0
    for yi, mi in zip(y, yhat):
        term = mi - yi
        if yi > 0:
            term += yi * math.log(yi / mi)
        total += term
    return 2.0 * total / len(y)


def oracle_r2(y, yhat):
    ybar = sum(y) / len(y)
    rss = sum((m - t) ** 2 for t, m in zip(y, yhat))
    tss = sum((t - ybar) ** 2 for t in y)
    return 1.0 - rss / tss


def oracle_auc(y, p):
    wins = 0.0
    pairs = 0
    for i in range(len(y)):
        for j in range(len(y)):
            if y[i] == 0 and y[j] == 1:
                pairs += 1
                if p[i] < p[j]:
                    wins += 1.0
                elif p[i] == p[j]:
                    wins += 0.5
    return wins / pairs


def oracle_mse(y, yhat):
    return sum((t - m) ** 2 for t, m in zip(y, yhat)) / len(y)


def oracle_mae(y, yhat):
    return sum(abs(t - m) for t, m in zip(y, yhat)) / len(y)


class TestPoissonDeviance:
    def test_perfect_fit_is_zero(self):
        assert poisson_deviance([1, 2], [1, 2]) == 0.0

    def test_spec_example(self):
        expected = -1.0 + 2.0 * math.log(2.0)  # oracle termwise: 0.3862943611198906
        assert poisson_deviance([1, 2], [1, 1]) == pytest.approx(expected, rel=1e-12)
        assert oracle_poisson([1, 2], [1, 1]) == pytest.approx(expected, rel=1e-12)

    def test_zero_count_limit(self):
        assert poisson_deviance([0, 1], [0.5, 1]) == pytest.approx(0.5, rel=1e-12)

    def test_nonpositive_prediction_invalid(self):
        with pytest.raises(InvalidPredictionError):
            poisson_deviance([1, 2], [1, 0])
        with pytest.raises(InvalidPredictionError):
            poisson_deviance([1, 2], [1, -3])

    def test_negative_observation_rejected(self):
        with pytest.raises(DataError):
            poisson_deviance([-1, 2], [1, 1])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            y = rng.integers(0, 10, n).astype(float)
            yhat = rng.uniform(0.1, 10, n)
            v = poisson_deviance(y, yhat)
            assert v >= 0.0
            assert poisson_deviance(y, np.maximum(y, 1e-9)) <= 1e-6 or (y == 0).any()


class TestR2:
    def test_perfect(self):
        assert r2_score([1, 2, 3], [1, 2, 3]) == 1.0

    def test_mean_predictor_is_zero(self):
        assert r2_score([1, 2, 3], [2, 2, 2]) == pytest.approx(0.0, abs=1e-15)

    def test_spec_example(self):
        assert r2_score([1, 2, 3], [1, 2, 4]) == pytest.approx(0.5, rel=1e-12)

    def test_constant_response_undefined(self):
        with pytest.raises(UndefinedMetricError):
            r2_score([2, 2, 2], [1, 2, 3])


class TestAuc:
    def test_separated(self):
        assert auc_score([0, 1], [0.2, 0.8]) == 1.0

    def test_spec_example(self):
        assert auc_score([0, 0, 1, 1], [0.1, 0.6, 0.4, 0.9]) == pytest.approx(0.75)

    def test_tie_convention(self):
        assert auc_score([0, 1], [0.5, 0.5]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auc_score([1, 1], [0.2, 0.8])

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(4, 30))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            p = np.round(rng.uniform(0, 1, n), 2)  # rounding forces ties
            assert auc_score(y, p) == pytest.approx(
                oracle_auc(y.tolist(), p.tolist()), rel=1e-12, abs=1e-12
            )

    def test_monotone_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            p = rng.uniform(0, 1, n)
            base = auc_score(y, p)
            assert auc_score(y, np.exp(2.0 * p)) == pytest.approx(base, rel=1e-12)
            assert auc_score(y, p**3 + 5.0) == pytest.approx(base, rel=1e-12)


class TestPointMetrics:
    def test_exact_fit(self):
        assert mse([1, 2], [1, 2]) == 0.0
        assert mae([1, 2], [1, 2]) == 0.0
        assert accuracy([1, 2], [1, 2]) == 1.0

    def test_spec_examples(self):
        assert mse([0, 0], [1, 3]) == pytest.approx(5.0)
        assert mae([0, 0], [1, 3]) == pytest.approx(2.0)
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            mse([1, 2], [1])

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            y = rng.normal(size=10)
            yhat = y.copy()
            assert mse(y, yhat) == 0.0
            yhat[3] += 1e-3
            assert mse(y, yhat) > 0.0
            assert mae(y, yhat) > 0.0


class TestDirectionAndRegistry:
    def test_engine_loss_sign_convention(self):
        m = get_metric("r2")
        y = np.array([1.0, 2.0, 3.0, 4.0])
        better = PredictionBundle.regression([1.0, 2.0, 3.0, 4.1])
        worse = PredictionBundle.regression([2.0, 2.0, 2.0, 2.0])
        assert m.raw(y, better) > m.raw(y, worse)
        assert m.engine_loss(y, better) < m.engine_loss(y, worse)

    def test_minimize_passthrough(self):
        m = get_metric("mse")
        y = np.array([1.0, 2.0])
        bundle = PredictionBundle.regression([2.0, 2.0])
        assert m.engine_loss(y, bundle) == m.raw(y, bundle)

    def test_gini_is_rescaled_auc(self):
        y = [0, 0, 1, 1]
        p = [0.1, 0.6, 0.4, 0.9]
        assert gini_score(y, p) == pytest.approx(2 * auc_score(y, p) - 1)

    def test_custom_metric_registration(self):
        m = register_custom_metric(
            "zero_everywhere", lambda y, b: 0.0, direction="minimize"
        )
        assert get_metric("custom:zero_everywhere") is m
        assert get_metric("zero_everywhere") is m

    def test_duplicate_builtin_rejected(self):
        with pytest.raises(RegistrationError):
            register_custom_metric("mse", lambda y, b: 0.0, direction="minimize")

    def test_unknown_metric(self):
        with pytest.raises(RegistrationError):
            get_metric("nope")


class TestBundle:
    def test_row_sum_validation(self):
        with pytest.raises(ContractError):
            PredictionBundle(values=np.array([0, 1]), probabilities=np.array([[0.7, 0.7], [0.5, 0.5]]))

    def test_probability_range_validation(self):
        with pytest.raises(ContractError):
            PredictionBundle(values=np.array([0]), probabilities=np.array([[1.5, -0.5]]))

    @pytest.mark.parametrize("table", [[[np.nan, np.nan]], [[np.nan, 1.0]], [[0.5, 0.5], [np.nan, 0.5]]])
    def test_nan_probabilities_fail(self, table):
        with pytest.raises(ContractError):
            PredictionBundle(values=np.zeros(len(table), dtype=int), probabilities=np.array(table))

    def test_auc_needs_probabilities(self):
        m = get_metric("auc")
        with pytest.raises(UndefinedMetricError):
            m.raw(np.array([0, 1]), PredictionBundle.regression([0.1, 0.9]))


class TestOracleSweep:
    """Randomized sweep of every formula against its brute-force oracle."""

    def test_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            n = int(rng.integers(2, 50))
            y_count = rng.integers(0, 8, n).astype(float)
            rate = rng.uniform(0.05, 9.0, n)
            assert poisson_deviance(y_count, rate) == pytest.approx(
                oracle_poisson(y_count.tolist(), rate.tolist()), rel=1e-10
            )
            y = rng.normal(size=n)
            yhat = rng.normal(size=n)
            if np.ptp(y) > 0:
                assert r2_score(y, yhat) == pytest.approx(
                    oracle_r2(y.tolist(), yhat.tolist()), rel=1e-9, abs=1e-10
                )
            assert mse(y, yhat) == pytest.approx(oracle_mse(y.tolist(), yhat.tolist()), rel=1e-10)
            assert mae(y, yhat) == pytest.approx(oracle_mae(y.tolist(), yhat.tolist()), rel=1e-10)
