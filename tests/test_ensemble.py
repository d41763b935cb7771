import numpy as np
import pytest

from conftest import make_regression_dataset
from tabcash.engine import Budget, Protocol, optimize
from tabcash.ensemble import (
    EnsembleModel,
    FeatureMask,
    build_bagging,
    build_boosting,
    build_stacking,
    draw_feature_masks,
    load_model,
    save_model,
)
from tabcash.errors import ConfigurationError, EnsembleError
from tabcash.metrics import get_metric
from tabcash.space import default_space, get_sampler
from tabcash.tabular import REGRESSION


def run_search(dataset, max_evals=8, seed=1, objective="mse"):
    space = default_space(
        dataset.task, y=dataset.y, n_features=dataset.n_features
    )
    return optimize(
        dataset,
        space,
        Budget(600.0, max_evals),
        sampler="random",
        metric=get_metric(objective),
        seed=seed,
    )


class TestFeatureMask:
    def test_empty_mask_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureMask((0, 0))

    def test_draw_respects_fraction(self):
        masks = draw_feature_masks(10, 4, 0.5, seed=3)
        assert len(masks) == 4
        for m in masks:
            assert m.n_selected == 5

    def test_fraction_one_keeps_all(self):
        masks = draw_feature_masks(6, 3, 1.0, seed=3)
        assert all(m.n_selected == 6 for m in masks)


class TestStacking:
    def test_members_are_top_ranked(self, regression_dataset):
        result = run_search(regression_dataset, max_evals=10)
        model = build_stacking(result.history, 3)
        valid = sorted(
            (t for t in result.history if t.status == "valid"),
            key=lambda t: (t.eval_loss, t.k),
        )
        expected = [t.pipeline for t in valid[:3]]
        assert [m.pipeline for m in model.members] == expected

    def test_h1_identical_to_best_pipeline(self, regression_dataset):
        result = run_search(regression_dataset, max_evals=8)
        X = regression_dataset.X
        for voting in ("mean", "median", "max"):
            model = build_stacking(result.history, 1, voting=voting)
            assert np.array_equal(model.predict(X), result.best.predict(X))

    def test_h1_identical_for_classification_votes(self, binary_dataset):
        result = run_search(binary_dataset, max_evals=8, objective="accuracy", seed=3)
        X = binary_dataset.X
        for voting in ("soft", "hard"):
            model = build_stacking(result.history, 1, voting=voting)
            assert np.array_equal(model.predict(X), result.best.predict(X))

    def test_shrinks_when_too_few_valid(self, regression_dataset):
        result = run_search(regression_dataset, max_evals=3)
        model = build_stacking(result.history, 50)
        assert model.n_members <= 3

    def test_no_valid_raises(self):
        with pytest.raises(EnsembleError):
            build_stacking([], 3)


class TestVoting:
    def _regression_members(self, dataset, n=3):
        result = run_search(dataset, max_evals=8)
        return build_stacking(result.history, n)

    def test_regression_statistics(self, regression_dataset):
        model = self._regression_members(regression_dataset)
        X = regression_dataset.X
        stack = np.vstack([m.pipeline.predict(X) for m in model.members])
        assert np.array_equal(
            EnsembleModel("stacking", "mean", model.members).predict(X), stack.mean(axis=0)
        )
        assert np.array_equal(
            EnsembleModel("stacking", "median", model.members).predict(X),
            np.median(stack, axis=0),
        )
        assert np.array_equal(
            EnsembleModel("stacking", "max", model.members).predict(X), stack.max(axis=0)
        )

    def test_soft_vote_sums_probabilities(self, binary_dataset):
        result = run_search(binary_dataset, max_evals=8, objective="auc", seed=5)
        model = build_stacking(result.history, 3, voting="soft")
        X = binary_dataset.X
        total = np.sum(
            [m.pipeline.predict_bundle(X).probabilities for m in model.members], axis=0
        )
        bundle = model.predict_bundle(X)
        assert np.array_equal(bundle.values, np.argmax(total, axis=1))
        assert bundle.probabilities == pytest.approx(total / model.n_members)
        assert bundle.probabilities.sum(axis=1) == pytest.approx(
            np.ones(len(X)), abs=1e-9
        )

    def test_hard_vote_majority(self, binary_dataset):
        result = run_search(binary_dataset, max_evals=8, objective="accuracy", seed=7)
        model = build_stacking(result.history, 3, voting="hard")
        X = binary_dataset.X
        votes = np.zeros((len(X), 2))
        for m in model.members:
            votes[np.arange(len(X)), m.pipeline.predict(X).astype(int)] += 1
        assert np.array_equal(model.predict(X), np.argmax(votes, axis=1))

    def test_soft_tie_prefers_lowest_class(self):
        # direct mechanism check on the documented example probabilities
        probs = [
            np.array([[0.6, 0.4]]),
            np.array([[0.3, 0.7]]),
            np.array([[0.55, 0.45]]),
        ]
        total = np.sum(probs, axis=0)
        assert np.argmax(total, axis=1)[0] == 1  # sums (1.45, 1.55) -> class index 1

    def test_hard_vote_of_identical_members_is_the_member(self, binary_dataset):
        from tabcash.ensemble import EnsembleMember

        result = run_search(binary_dataset, max_evals=4, objective="accuracy", seed=11)
        members = [
            EnsembleMember(pipeline=result.best, tag=i + 1) for i in range(3)
        ]
        model = EnsembleModel("stacking", "hard", members)
        assert np.array_equal(
            model.predict(binary_dataset.X), result.best.predict(binary_dataset.X)
        )

    def test_invalid_vote_combinations(self, regression_dataset, binary_dataset):
        reg = self._regression_members(regression_dataset, 2)
        with pytest.raises(ConfigurationError):
            EnsembleModel("stacking", "soft", reg.members)
        with pytest.raises(ConfigurationError):
            EnsembleModel("boosting", "mean", reg.members)
        cls_result = run_search(binary_dataset, max_evals=6, objective="accuracy")
        cls = build_stacking(cls_result.history, 2)
        with pytest.raises(ConfigurationError):
            EnsembleModel("stacking", "mean", cls.members)
        with pytest.raises(ConfigurationError):
            EnsembleModel("boosting", "sum", cls.members)


class TestBagging:
    def test_budget_split_and_masked_members(self):
        ds = make_regression_dataset(n=70, w=5, seed=13)
        space = default_space(REGRESSION, y=ds.y, n_features=5)
        model, histories = build_bagging(
            ds,
            space,
            Budget(600.0, 8),
            get_sampler("random"),
            get_metric("mse"),
            n_members=4,
            feature_fraction=0.6,
            seed=2,
        )
        assert model.n_members == 4
        assert [len(h) for h in histories] == [2, 2, 2, 2]
        for member in model.members:
            assert member.mask.n_selected == 3

    def test_member_ignores_masked_out_columns(self):
        ds = make_regression_dataset(n=60, w=4, seed=17)
        space = default_space(REGRESSION, y=ds.y, n_features=4)
        model, _ = build_bagging(
            ds,
            space,
            Budget(600.0, 4),
            get_sampler("random"),
            get_metric("mse"),
            n_members=2,
            feature_fraction=0.5,
            seed=4,
        )
        member = model.members[0]
        dropped = [j for j, keep in enumerate(member.mask.mask) if not keep]
        X = ds.X.copy()
        X_perturbed = X.copy()
        for j in dropped:
            X_perturbed[:, j] = 1e6
        masked = member.mask.as_bool()
        a = member.pipeline.predict(X[:, masked])
        b = member.pipeline.predict(X_perturbed[:, masked])
        assert np.array_equal(a, b)
        # and through the ensemble surface, perturbing a dropped column of
        # one member can only affect other members that kept it
        full_a = model.predict_bundle(X).values
        assert len(full_a) == len(X)

    def test_too_small_budget_rejected(self):
        ds = make_regression_dataset(n=40, w=3, seed=19)
        space = default_space(REGRESSION, y=ds.y, n_features=3)
        with pytest.raises(ConfigurationError):
            build_bagging(
                ds,
                space,
                Budget(600.0, 3),
                get_sampler("random"),
                get_metric("mse"),
                n_members=4,
                seed=0,
            )


class TestBoosting:
    def test_prediction_is_sum_of_members(self):
        ds = make_regression_dataset(n=60, w=3, seed=23, noise=0.5)
        space = default_space(REGRESSION, y=ds.y, n_features=3)
        model, _ = build_boosting(
            ds,
            space,
            Budget(600.0, 6),
            get_sampler("random"),
            get_metric("mse"),
            n_members=3,
            seed=5,
        )
        X = ds.X
        total = np.sum([m.pipeline.predict(X) for m in model.members], axis=0)
        assert np.array_equal(model.predict(X), total)

    def test_stage_two_trains_on_residuals(self):
        ds = make_regression_dataset(n=50, w=2, seed=29, noise=0.2)
        space = default_space(REGRESSION, y=ds.y, n_features=2)
        space = space.replace_menu("model", ("dummy",))
        for stage in ("encode", "impute", "balance", "scale", "select"):
            space = space.replace_menu(stage, (space.methods[stage][0],))
        model, _ = build_boosting(
            ds,
            space,
            Budget(600.0, 4),
            get_sampler("random"),
            get_metric("mse"),
            n_members=2,
            seed=6,
            protocol=Protocol(mode="none"),
        )
        # dummy chain: stage 1 predicts the mean, stage 2 mean of residuals = 0
        preds = model.predict(ds.X)
        assert preds == pytest.approx(np.full(ds.n_rows, ds.y.mean()), abs=1e-10)

    def test_classification_rejected(self, binary_dataset):
        space = default_space("binary_classification", n_features=2)
        with pytest.raises(ConfigurationError):
            build_boosting(
                binary_dataset,
                space,
                Budget(600.0, 4),
                get_sampler("random"),
                get_metric("accuracy"),
                n_members=2,
                seed=0,
            )

    def test_count_objective_rejected_up_front(self, monkeypatch):
        ds = make_regression_dataset(n=40, w=2, seed=3)
        counts = ds.with_response(np.round(np.abs(ds.y)))
        monkeypatch.setattr("tabcash.ensemble.optimize", pytest.fail)
        with pytest.raises(ConfigurationError, match="'poisson_deviance'"):
            build_boosting(counts, default_space(REGRESSION, y=counts.y, n_features=2),
                           Budget(600.0, 4), get_sampler("random"),
                           get_metric("poisson_deviance"), n_members=2)

    def test_h1_matches_plain_optimize(self):
        from tabcash.ensemble import _derived_seed

        ds = make_regression_dataset(n=60, w=3, seed=31)
        space = default_space(REGRESSION, y=ds.y, n_features=3)
        model, histories = build_boosting(
            ds,
            space,
            Budget(600.0, 4),
            get_sampler("random"),
            get_metric("mse"),
            n_members=1,
            seed=7,
        )
        assert model.n_members == 1
        assert len(histories[0]) == 4
        plain = optimize(
            ds,
            space,
            Budget(600.0, 4),
            "random",
            get_metric("mse"),
            seed=_derived_seed(7, 1399, 1),
        )
        assert np.array_equal(model.predict(ds.X), plain.best.predict(ds.X))


class TestSerialization:
    def test_ensemble_round_trip(self, tmp_path, regression_dataset):
        result = run_search(regression_dataset, max_evals=6)
        model = build_stacking(result.history, 3)
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert isinstance(again, EnsembleModel)
        assert np.array_equal(
            again.predict(regression_dataset.X), model.predict(regression_dataset.X)
        )

    def test_bagging_round_trip_keeps_masks(self, tmp_path):
        ds = make_regression_dataset(n=50, w=4, seed=37)
        space = default_space(REGRESSION, y=ds.y, n_features=4)
        model, _ = build_bagging(
            ds,
            space,
            Budget(600.0, 4),
            get_sampler("random"),
            get_metric("mse"),
            n_members=2,
            feature_fraction=0.5,
            seed=8,
        )
        path = tmp_path / "bag.json"
        save_model(model, path)
        again = load_model(path)
        assert [m.mask.mask for m in again.members] == [m.mask.mask for m in model.members]
        assert np.array_equal(again.predict(ds.X), model.predict(ds.X))

    def test_pipeline_round_trip_through_load_model(self, tmp_path, regression_dataset):
        result = run_search(regression_dataset, max_evals=4)
        path = tmp_path / "pipe.json"
        save_model(result.best, path)
        again = load_model(path)
        assert np.array_equal(
            again.predict(regression_dataset.X), result.best.predict(regression_dataset.X)
        )
