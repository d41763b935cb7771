import math

import numpy as np
import pytest

from tabcash import models
from tabcash.errors import ConfigurationError, ContractError, FitError, FormatError, TaskError
from tabcash.models import (
    CLASSIFICATION_MODELS,
    REGRESSION_MODELS,
    Cart,
    DummyModel,
    GradientBoosted,
    KNNModel,
    LogisticModel,
    Model,
    PoissonGLM,
    RandomForest,
    RidgeRegression,
    make_model,
)


def linear_data(n=60, w=3, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, w))
    beta = np.array([1.5, -2.0, 0.5][:w])
    y = 4.0 + X @ beta + noise * rng.normal(size=n)
    return X, y, beta


class TestDummy:
    def test_regression_mean(self):
        X = np.zeros((3, 1))
        m = DummyModel("regression").fit(X, [1.0, 2.0, 3.0])
        assert m.predict(X).tolist() == [2.0, 2.0, 2.0]

    def test_classification_frequencies(self):
        X = np.zeros((4, 1))
        m = DummyModel("classification").fit(X, np.array([0, 0, 0, 1]), n_classes=2)
        probs = m.predict_proba(X)
        assert probs[0].tolist() == [0.75, 0.25]
        assert m.predict(X).tolist() == [0, 0, 0, 0]


class TestRidge:
    def test_near_zero_alpha_recovers_exact_coefficients(self):
        X, y, beta = linear_data()
        m = RidgeRegression(alpha=1e-10).fit(X, y)
        # least-squares oracle on the same augmented system
        A = np.hstack([np.ones((len(X), 1)), X])
        oracle, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert m.coef_ == pytest.approx(oracle, abs=1e-8)
        assert m.coef_[1:] == pytest.approx(beta, abs=1e-6)

    def test_singular_with_zero_alpha_raises(self):
        X = np.ones((5, 2))  # duplicate columns, collinear with intercept
        with pytest.raises(FitError):
            RidgeRegression(alpha=0.0).fit(X, np.arange(5.0))

    def test_alpha_regularizes_duplicate_columns(self):
        X = np.ones((5, 2))
        m = RidgeRegression(alpha=1.0).fit(X, np.arange(5.0))
        assert np.isfinite(m.coef_).all()

    def test_intercept_not_penalized(self):
        y = np.full(20, 100.0)
        X = np.random.default_rng(0).normal(size=(20, 2))
        m = RidgeRegression(alpha=1e6).fit(X, y)
        assert m.predict(X) == pytest.approx(np.full(20, 100.0), rel=1e-3)


def logistic_gradient_norm(model, X, y):
    """Norm of the gradient of the mean penalized negative log-likelihood."""
    A = np.hstack([np.ones((len(X), 1)), X])
    classes = [1] if model.n_classes_ == 2 else range(model.n_classes_)
    worst = 0.0
    for c, coef in zip(classes, model.coef_):
        p = 0.5 * (1.0 + np.tanh(0.5 * (A @ coef)))
        grad = A.T @ (p - (y == c)) / len(y)
        grad[1:] += model.alpha * coef[1:] / len(y)
        worst = max(worst, float(np.linalg.norm(grad)))
    return worst


class TestLogistic:
    def test_separates_blobs(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(-2, 0.5, (40, 2)), rng.normal(2, 0.5, (40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        m = LogisticModel(alpha=1e-3).fit(X, y, n_classes=2)
        assert (m.predict(X) == y).mean() > 0.95
        probs = m.predict_proba(X)
        assert probs.sum(axis=1) == pytest.approx(np.ones(80), abs=1e-9)
        assert logistic_gradient_norm(m, X, y) <= 1e-6

    def test_multiclass_ovr(self):
        rng = np.random.default_rng(2)
        centers = [(-3, 0), (3, 0), (0, 4)]
        X = np.vstack([rng.normal(c, 0.4, (30, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 30)
        m = LogisticModel(alpha=1e-3).fit(X, y, n_classes=3)
        assert (m.predict(X) == y).mean() > 0.9
        probs = m.predict_proba(X)
        assert probs.sum(axis=1) == pytest.approx(np.ones(90), abs=1e-9)
        assert logistic_gradient_norm(m, X, y) <= 1e-6

    def test_badly_scaled_columns_reach_the_optimum(self):
        # Unpenalized, the optimum does not depend on an affine change of the
        # columns: fit standardized columns, then the same columns scaled by
        # 1 to 1000 and shifted by 50, as a pipeline with no scaler passes them.
        rng = np.random.default_rng(0)
        y = (rng.random(1000) < 0.1).astype(int)
        X = rng.normal(size=(1000, 6)) * 1.5 + y[:, None]
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        S = Z * np.logspace(0, 3, 6) + 50.0

        def nll(coef, X):
            z = coef[0] + X @ coef[1:]
            return float(np.mean(np.logaddexp(0.0, z) - y * z))

        standardized = LogisticModel(alpha=0.0).fit(Z, y)
        scaled = LogisticModel(alpha=0.0).fit(S, y)
        assert nll(scaled.coef_[0], S) == pytest.approx(nll(standardized.coef_[0], Z), abs=1e-9)
        assert logistic_gradient_norm(scaled, S, y) <= 1e-6

    @pytest.mark.parametrize("alpha", [0.0, 1e-4])
    def test_separable_data_stays_finite(self, alpha):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        try:
            m = LogisticModel(alpha=alpha).fit(X, np.array([0, 0, 1, 1]))
        except FitError:
            return
        probs = m.predict_proba(X)
        assert np.isfinite(m.coef_).all()
        assert probs.min() >= 0.0 and probs.max() <= 1.0
        assert m.predict(X).tolist() == [0, 0, 1, 1]


class TestPoissonGLM:
    def test_intercept_only_recovers_log_mean(self):
        X = np.empty((4, 0))
        m = PoissonGLM().fit(X, [0.0, 1.0, 2.0, 3.0])
        assert m.coef_[0] == pytest.approx(math.log(1.5), abs=1e-8)

    def test_offset_recovers_known_coefficients_exactly(self):
        # Choose integer counts first, then the offset that makes the rate
        # exact: y = exp(intercept + X beta + offset) holds by construction,
        # so the likelihood peaks at the true coefficients.
        rng = np.random.default_rng(3)
        n, w = 200, 3
        X = rng.normal(size=(n, w))
        beta = np.array([0.4, -0.3, 0.2])
        intercept = 0.7
        y = rng.integers(1, 10, n).astype(float)
        offset = np.log(y) - intercept - X @ beta
        m = PoissonGLM().fit(X, y, offset=offset)
        assert m.coef_[0] == pytest.approx(intercept, abs=1e-4)
        assert m.coef_[1:] == pytest.approx(beta, abs=1e-4)
        # The fitting arithmetic is pinned: these are the bits served models carry.
        assert [float(c).hex() for c in m.coef_] == [
            "0x1.6666666666667p-1",
            "0x1.9999999999997p-2",
            "-0x1.3333333333331p-2",
            "0x1.9999999999996p-3",
        ]

    def test_predictions_strictly_positive(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        y = rng.poisson(np.exp(0.2 + 0.3 * X[:, 0]))
        m = PoissonGLM().fit(X, y.astype(float))
        assert (m.predict(rng.normal(size=(50, 2)) * 10) > 0).all()

    def test_non_integer_response_is_task_error(self):
        with pytest.raises(TaskError):
            PoissonGLM().fit(np.zeros((3, 1)), [0.5, 1.0, 2.0])

    def test_negative_response_is_task_error(self):
        with pytest.raises(TaskError):
            PoissonGLM().fit(np.zeros((3, 1)), [-1.0, 1.0, 2.0])

    @pytest.mark.parametrize("offset", [[0.0], [0.0, 1.0, 2.0]])
    def test_predict_offset_must_match_the_rows(self, offset):
        """A short offset neither broadcasts over the rows nor fails inside numpy."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 2))
        m = PoissonGLM().fit(X, rng.poisson(2.0, 20).astype(float))
        with pytest.raises(ConfigurationError, match="offset length"):
            m.predict(X[:5], offset=offset)
        assert m.predict(X[:5], offset=np.zeros(5)).shape == (5,)

    def test_one_hot_block_beside_the_intercept_fits(self):
        """A complete column's one-hot block sums to the intercept column, so the
        IRLS system is singular; the fit takes the minimum-norm solution and
        predicts as the model without the redundant column does."""
        rng = np.random.default_rng(1)  # np.linalg.solve raises on this table
        levels = rng.integers(0, 3, 60)
        X = np.hstack([rng.normal(size=(60, 1)), np.eye(3)[levels]])
        y = rng.poisson(np.exp(0.3 * X[:, 0] + 0.2 * levels)).astype(float)
        full = PoissonGLM().fit(X, y).predict(X)
        reduced = PoissonGLM().fit(X[:, :-1], y).predict(X[:, :-1])
        assert full == pytest.approx(reduced, rel=1e-9)


class TestKnn:
    def test_k1_reproduces_training_labels(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, 30)
        m = KNNModel("classification", k=1).fit(X, y, n_classes=2)
        assert m.predict(X).tolist() == y.tolist()

    def test_regression_mean_of_neighbors(self):
        X = np.array([[0.0], [1.0], [10.0]])
        y = np.array([0.0, 2.0, 100.0])
        m = KNNModel("regression", k=2).fit(X, y)
        assert m.predict(np.array([[0.4]]))[0] == pytest.approx(1.0)

    def test_distance_tie_prefers_lower_row(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([7.0, 9.0])
        m = KNNModel("regression", k=1).fit(X, y)
        assert m.predict(np.array([[1.0]]))[0] == 7.0

    def test_probabilities_are_vote_fractions(self):
        X = np.array([[0.0], [0.1], [0.2], [5.0]])
        y = np.array([1, 1, 0, 0])
        m = KNNModel("classification", k=3).fit(X, y, n_classes=2)
        probs = m.predict_proba(np.array([[0.05]]))
        assert probs[0].tolist() == pytest.approx([1 / 3, 2 / 3])


class TestCart:
    def test_max_depth_zero_equals_dummy(self):
        X, y, _ = linear_data(40)
        tree = Cart("regression", max_depth=0).fit(X, y)
        assert tree.predict(X).tolist() == [pytest.approx(y.mean())] * len(X)

    def test_fits_step_function(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 10.0
        tree = Cart("regression", max_depth=2).fit(X, y)
        assert tree.predict(X) == pytest.approx(y)

    def test_classification_pure_leaves(self):
        rng = np.random.default_rng(6)
        X = np.vstack([rng.normal(-2, 0.3, (25, 2)), rng.normal(2, 0.3, (25, 2))])
        y = np.array([0] * 25 + [1] * 25)
        tree = Cart("classification", max_depth=4).fit(X, y, n_classes=2)
        assert (tree.predict(X) == y).all()
        probs = tree.predict_proba(X)
        assert probs.sum(axis=1) == pytest.approx(np.ones(50))

    def test_min_samples_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = np.array([0.0] * 5 + [100.0] * 5)
        tree = Cart("regression", min_samples_leaf=3).fit(X, y)

        def leaf_sizes(node, rows):
            if tree.left_[node] == node:
                return [len(rows)]
            mask = X[rows, tree.feature_[node]] <= tree.threshold_[node]
            return leaf_sizes(tree.left_[node], rows[mask]) + leaf_sizes(
                tree.right_[node], rows[~mask]
            )

        assert min(leaf_sizes(tree.roots_[0], np.arange(10))) >= 3


    def test_adjacent_float_split(self):
        a = np.nextafter(1.0, 2)
        b = np.nextafter(a, 2)
        X = np.array([[a], [b], [a], [b]])
        tree = Cart("regression", max_depth=3).fit(X, np.array([0.0, 3.0, 0.0, 3.0]))
        assert tree.predict(np.array([[a], [b]])).tolist() == [0.0, 3.0]


class TestRandomForest:
    def test_single_tree_no_bootstrap_equals_cart(self):
        X, y, _ = linear_data(80, seed=7, noise=0.5)
        forest = RandomForest(
            "regression",
            n_trees=1,
            max_depth=4,
            bootstrap=False,
            feature_subsample=False,
            seed=3,
        ).fit(X, y)
        tree = Cart("regression", max_depth=4).fit(X, y)
        assert np.array_equal(forest.predict(X), tree.predict(X))

    def test_deterministic_given_seed(self):
        X, y, _ = linear_data(60, seed=8, noise=1.0)
        a = RandomForest("regression", n_trees=5, max_depth=3, seed=9).fit(X, y)
        b = RandomForest("regression", n_trees=5, max_depth=3, seed=9).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_classification_probabilities_row_stochastic(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(int)
        m = RandomForest("classification", n_trees=7, max_depth=3, seed=1).fit(
            X, y, n_classes=2
        )
        probs = m.predict_proba(X)
        assert probs.min() >= 0 and probs.max() <= 1
        assert probs.sum(axis=1) == pytest.approx(np.ones(60), abs=1e-9)


class TestGradientBoosted:
    def test_single_stage_unit_rate_is_mean_plus_tree(self):
        X, y, _ = linear_data(50, seed=11, noise=0.3)
        gbt = GradientBoosted(n_stages=1, learning_rate=1.0, max_depth=3).fit(X, y)
        manual_tree = Cart("regression", max_depth=3).fit(X, y - y.mean())
        expected = y.mean() + manual_tree.predict(X)
        assert gbt.predict(X) == pytest.approx(expected, abs=1e-12)

    def test_training_mse_non_increasing(self):
        X, y, _ = linear_data(80, seed=12, noise=1.0)
        losses = []
        for stages in (1, 3, 6, 12, 24):
            m = GradientBoosted(n_stages=stages, learning_rate=0.3, max_depth=2).fit(X, y)
            losses.append(float(np.mean((m.predict(X) - y) ** 2)))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


class TestClassifierProbabilities:
    @pytest.mark.parametrize(
        "method,params",
        [
            ("dummy", {}),
            ("knn", {"k": 4}),
            ("logistic", {"alpha": 0.1}),
            ("cart", {"max_depth": 4}),
            ("random_forest", {"n_trees": 4, "seed": 2}),
        ],
    )
    def test_row_stochastic_on_random_problems(self, method, params):
        rng = np.random.default_rng(31)
        for trial in range(5):
            n_classes = int(rng.integers(2, 4))
            X = rng.normal(size=(50, 3))
            y = rng.integers(0, n_classes, 50)
            model = make_model(method, "classification", **params)
            model.fit(X, y, n_classes=n_classes)
            probs = model.predict_proba(rng.normal(size=(20, 3)))
            assert probs.shape == (20, n_classes)
            assert probs.min() >= 0.0 and probs.max() <= 1.0
            assert probs.sum(axis=1) == pytest.approx(np.ones(20), abs=1e-9)


class TestFactoryAndSerialization:
    def test_factory_rejects_task_mismatch(self):
        from tabcash.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            make_model("gbt", "classification")
        with pytest.raises(ConfigurationError):
            make_model("logistic", "regression")

    @pytest.mark.parametrize(
        "method,task,params",
        [
            ("dummy", "regression", {}),
            ("dummy", "classification", {}),
            ("ridge", "regression", {"alpha": 0.5}),
            ("poisson_glm", "regression", {}),
            ("knn", "regression", {"k": 3}),
            ("knn", "classification", {"k": 3}),
            ("logistic", "classification", {"alpha": 0.01}),
            ("cart", "regression", {"max_depth": 3}),
            ("cart", "classification", {"max_depth": 3}),
            ("random_forest", "regression", {"n_trees": 3, "seed": 1}),
            ("random_forest", "classification", {"n_trees": 3, "seed": 1}),
            ("gbt", "regression", {"n_stages": 3}),
        ],
    )
    def test_state_round_trip_predictions(self, method, task, params):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 3))
        if task == "classification":
            y = (X[:, 0] + 0.3 * rng.normal(size=40) > 0).astype(int)
        elif method == "poisson_glm":
            y = rng.poisson(np.exp(0.1 + 0.2 * X[:, 0])).astype(float)
        else:
            y = X @ np.array([1.0, -1.0, 0.5]) + 0.1 * rng.normal(size=40)
        model = make_model(method, task, **params)
        if task == "classification":
            model.fit(X, y, n_classes=2)
        else:
            model.fit(X, y)
        clone = Model.from_state(model.to_state())
        assert np.array_equal(clone.predict(X), model.predict(X))
        if task == "classification":
            assert np.array_equal(clone.predict_proba(X), model.predict_proba(X))


CONTRACT_CASES = [
    pytest.param(method, task, id=f"{method}-{task}")
    for method in sorted(models._CLASSES)
    for task, menu in (("regression", REGRESSION_MODELS), ("classification", CLASSIFICATION_MODELS))
    if method in menu
]


@pytest.mark.parametrize("method,task", CONTRACT_CASES)
def test_every_model_keeps_the_contract(method, task):
    cls = models._CLASSES[method]
    assert "fit" in cls.__dict__
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 3))
    if task == "classification":
        y = rng.integers(0, 3, 30)
    else:
        y = rng.poisson(2.0, 30).astype(float)
    holed = X.copy()
    holed[4, 1] = np.nan
    model = make_model(method, task)
    assert model.is_classifier == (task == "classification")
    scorers = ("predict", "predict_proba") if model.is_classifier else ("predict",)
    for name in scorers:
        with pytest.raises(ContractError, match="before fit"):
            getattr(model, name)(X)
    with pytest.raises(ContractError, match="missing values"):
        model.fit(holed, y)
    with pytest.raises(ConfigurationError, match="row counts differ"):
        model.fit(X, y[:-1])
    with pytest.raises(ConfigurationError, match="empty"):
        model.fit(X[:0], y[:0])
    model.fit(X, y)
    for name in scorers:
        with pytest.raises(ContractError, match="missing values"):
            getattr(model, name)(holed)
        with pytest.raises(ContractError, match="fitted on 3"):
            getattr(model, name)(X[:, :2])
    if not model.is_classifier:
        with pytest.raises(ConfigurationError, match="has no probabilities"):
            model.predict_proba(X)
    with pytest.raises(ConfigurationError, match="unknown task"):
        make_model(method, "ranking")
    if "task" in cls._param_names():
        with pytest.raises(ConfigurationError, match="unknown task"):
            cls(task="ranking")


@pytest.mark.parametrize(
    "cls,n_classes",
    [(RidgeRegression, 0), (PoissonGLM, 0), (LogisticModel, 2), (LogisticModel, 3)],
    ids=["ridge", "poisson_glm", "logistic-2", "logistic-3"],
)
def test_linear_models_predict_a_lone_row_as_in_its_batch(cls, n_classes):
    model = cls()
    rng = np.random.default_rng(17)
    X = rng.normal(size=(500, 9)) * np.logspace(-1, 2, 9)
    signal = X @ (0.3 / np.logspace(-1, 2, 9))
    if n_classes:
        model.fit(X, np.digitize(signal, np.quantile(signal, [0.5, 0.8][: n_classes - 1])))
        batch, score = model.predict_proba(X), model.predict_proba
    else:
        model.fit(X, rng.poisson(np.exp(0.5 + 0.3 * signal)).astype(float))
        batch, score = model.predict(X), model.predict
    alone = np.vstack([score(X[i : i + 1]) for i in range(len(X))]).reshape(batch.shape)
    assert alone.tobytes() == batch.tobytes()


@pytest.mark.parametrize("cls", [LogisticModel, PoissonGLM])
def test_glms_reject_max_iter_below_one(cls):
    with pytest.raises(ConfigurationError, match="max_iter"):
        cls(max_iter=0)


@pytest.mark.parametrize("cls", [Cart, RandomForest, GradientBoosted])
@pytest.mark.parametrize(
    "params",
    [{"min_samples_split": 1}, {"min_samples_leaf": 0}, {"max_depth": -1}, {"max_depth": -2}],
)
def test_tree_models_reject_bad_tree_parameters(cls, params):
    with pytest.raises(ConfigurationError):
        cls(**params)
    X, y, _ = linear_data(n=30)
    state = cls(max_depth=2).fit(X, y).to_state()
    state["params"].update(params)
    with pytest.raises(FormatError):
        Model.from_state(state)


@pytest.mark.parametrize(
    "model,params",
    [(RandomForest(n_trees=3), {"max_depth": -2}), (KNNModel(), {"task": "ranking"})],
)
def test_set_params_checks_like_the_constructor(model, params):
    before = model.get_params()
    with pytest.raises(ConfigurationError):
        model.set_params(**params)
    assert model.get_params() == before
    with pytest.raises(ContractError, match="unknown parameter"):
        model.set_params(depth=3)
    assert model.set_params(**before) is model and model.get_params() == before
