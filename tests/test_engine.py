import json

import numpy as np
import pytest

from conftest import make_binary_dataset, make_regression_dataset
from tabcash.engine import (
    Budget,
    Protocol,
    evaluate,
    failure_histogram,
    fit_pipeline_on_rows,
    incumbent_curve,
    load_pipeline,
    optimize,
    persist_history,
    save_pipeline,
)
from tabcash.errors import ConfigurationError, FormatError, OptimizationError
from tabcash.metrics import get_metric
from tabcash.space import PipelineSpec, StageChoice, default_space
from tabcash.tabular import REGRESSION, split_dataset


def plain_spec(model="dummy", model_params=None, balance="none", balance_params=None, seed=7):
    stages = {
        "encode": StageChoice("ordinal", {}),
        "impute": StageChoice("mean", {}),
        "balance": StageChoice(balance, dict(balance_params or {})),
        "scale": StageChoice("none", {}),
        "select": StageChoice("none", {}),
        "model": StageChoice(model, dict(model_params or {})),
    }
    return PipelineSpec(stages=stages, seed=seed)


class TestEvaluate:
    def test_dummy_holdout_matches_closed_form(self, regression_dataset):
        ds = regression_dataset
        split = split_dataset(ds, 0.0, 0.25, seed=1)
        record = evaluate(plain_spec(), ds, split, get_metric("mse"))
        assert record.status == "valid"
        train_mean = ds.y[split.train_indices].mean()
        expected = float(np.mean((ds.y[split.valid_indices] - train_mean) ** 2))
        assert record.eval_loss == pytest.approx(expected, rel=1e-12)

    def test_knn_self_neighbor_accuracy(self, binary_dataset):
        spec = plain_spec(model="knn", model_params={"k": 1})
        record = evaluate(spec, binary_dataset, None, get_metric("accuracy"))
        assert record.status == "valid"
        assert record.eval_loss == -1.0

    def test_poisson_validity_rule_marks_invalid(self):
        ds = make_regression_dataset(n=40, seed=3)
        counts = np.round(np.abs(ds.y)).astype(float)
        ds = ds.with_response(counts, task=REGRESSION)
        # ridge regression on centered data will produce nonpositive rates
        spec = plain_spec(model="ridge", model_params={"alpha": 1e-6})
        record = evaluate(spec, ds, None, get_metric("poisson_deviance"))
        assert record.status == "invalid"
        assert record.pipeline is None

    def test_fit_failure_is_recorded_not_raised(self, regression_dataset):
        spec = plain_spec(model="ridge", model_params={"alpha": -1.0})
        record = evaluate(spec, regression_dataset, None, get_metric("mse"))
        assert record.status == "failed"
        assert "alpha" in record.reason or "nonnegative" in record.reason

    @pytest.mark.parametrize(
        "model,params,words",
        [
            ("random_forest", {"max_depth": -2}, "max_depth must be nonnegative"),
            ("gbt", {"max_depth": -1}, "max_depth must be nonnegative"),
            ("gbt", {"min_samples_leaf": 0}, "invalid split/leaf minimums"),
        ],
    )
    def test_bad_tree_parameters_fail_the_trial(self, regression_dataset, model, params, words):
        spec = plain_spec(model=model, model_params=params)
        record = evaluate(spec, regression_dataset, None, get_metric("mse"))
        assert record.status == "failed"
        assert words in record.reason

    def test_kfold_mean_and_refit(self, regression_dataset):
        from tabcash.tabular import make_folds

        plan = make_folds(regression_dataset.n_rows, 4, seed=2)
        record = evaluate(plain_spec(), regression_dataset, plan, get_metric("mse"))
        assert record.status == "valid"
        assert len(record.fold_losses) == 4
        assert record.eval_loss == pytest.approx(float(np.mean(record.fold_losses)))
        # refit pipeline saw every row: predicts the global mean
        pred = record.pipeline.predict(regression_dataset.X)
        assert pred[0] == pytest.approx(regression_dataset.y.mean())

    def test_balancing_only_on_training_rows(self):
        ds = make_binary_dataset(n_major=80, n_minor=10, seed=5)
        split = split_dataset(ds, 0.0, 0.3, seed=1)
        spec = plain_spec(
            model="knn",
            model_params={"k": 3},
            balance="random_over",
            balance_params={"ratio": 1.0},
        )
        record = evaluate(spec, ds, split, get_metric("accuracy"))
        assert record.status == "valid"
        # pipeline prediction table is untouched; only fit-time rows resampled
        bundle = record.pipeline.predict_bundle(ds.X)
        assert len(bundle.values) == ds.n_rows


class TestTrainedPipeline:
    def test_transform_order_and_prediction_shape(self, binary_dataset):
        spec = plain_spec(model="logistic", model_params={"alpha": 0.01})
        pipe = fit_pipeline_on_rows(spec, binary_dataset, np.arange(binary_dataset.n_rows))
        bundle = pipe.predict_bundle(binary_dataset.X)
        assert bundle.probabilities.shape == (binary_dataset.n_rows, 2)

    def test_save_load_bit_identical(self, tmp_path, regression_dataset):
        spec = plain_spec(model="cart", model_params={"max_depth": 4})
        pipe = fit_pipeline_on_rows(
            spec, regression_dataset, np.arange(regression_dataset.n_rows)
        )
        before = pipe.predict(regression_dataset.X)
        path = tmp_path / "pipe.json"
        save_pipeline(pipe, path)
        again = load_pipeline(path)
        after = again.predict(regression_dataset.X)
        assert np.array_equal(before, after)

    def test_version_mismatch_is_format_error(self, tmp_path, regression_dataset):
        spec = plain_spec()
        pipe = fit_pipeline_on_rows(spec, regression_dataset, np.arange(10))
        payload = pipe.to_dict()
        payload["schema_version"] = 999
        path = tmp_path / "pipe.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError):
            load_pipeline(path)

    def test_align_names_missing_column(self, regression_dataset):
        spec = plain_spec()
        pipe = fit_pipeline_on_rows(spec, regression_dataset, np.arange(20))
        smaller = regression_dataset.select_features([True, True, False])
        with pytest.raises(ConfigurationError) as err:
            pipe.align(smaller)
        assert "x2" in str(err.value)


class TestOptimize:
    def test_exact_trial_count_with_large_time(self, regression_dataset):
        space = default_space(REGRESSION, y=regression_dataset.y, n_features=3)
        result = optimize(
            regression_dataset,
            space,
            Budget(time_seconds=600.0, max_evals=5),
            sampler="random",
            metric=get_metric("mse"),
            seed=1,
        )
        assert len(result.history) == 5
        assert result.best_k == min(
            (t.k for t in result.history if t.status == "valid"),
            key=lambda k: (result.history[k].eval_loss, k),
        )

    def test_incumbent_curve_non_increasing(self, regression_dataset):
        space = default_space(REGRESSION, y=regression_dataset.y, n_features=3)
        result = optimize(
            regression_dataset,
            space,
            Budget(600.0, 12),
            sampler="adaptive",
            metric=get_metric("mse"),
            seed=3,
        )
        curve = incumbent_curve(result.history)
        losses = [v for _, v in curve]
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_singleton_space_all_trials_same_spec(self, regression_dataset):
        space = default_space(REGRESSION, y=regression_dataset.y, n_features=3)
        for stage in ("encode", "impute", "balance", "scale", "select"):
            space = space.replace_menu(stage, (space.methods[stage][0],))
        space = space.replace_menu("model", ("dummy",))
        result = optimize(
            regression_dataset,
            space,
            Budget(600.0, 4),
            sampler="random",
            metric=get_metric("mse"),
            seed=2,
        )
        summaries = {t.spec.summary() for t in result.history}
        assert len(summaries) == 1

    def test_unexpected_exception_recorded_as_internal_failure(
        self, regression_dataset, monkeypatch
    ):
        from tabcash.models import KNNModel

        def broken_fit(self, X, y, n_classes=None):
            raise RuntimeError("broken fit")

        monkeypatch.setattr(KNNModel, "fit", broken_fit)
        space = default_space(REGRESSION, y=regression_dataset.y, n_features=3)
        space = space.replace_menu("model", ("dummy", "knn"))
        result = optimize(
            regression_dataset,
            space,
            Budget(600.0, 8),
            sampler="random",
            metric=get_metric("mse"),
            seed=2,
        )
        assert len(result.history) == 8
        knn = [t for t in result.history if t.spec.stages["model"].method == "knn"]
        assert knn
        for t in knn:
            assert t.status == "failed"
            assert t.reason == "internal: RuntimeError: broken fit"

    def test_time_budget_near_zero_runs_at_most_one_trial(self, regression_dataset):
        space = default_space(REGRESSION, y=regression_dataset.y, n_features=3)
        with pytest.raises(OptimizationError) as err:
            optimize(
                regression_dataset,
                space,
                Budget(1e-9, 50),
                sampler="random",
                metric=get_metric("mse"),
                seed=2,
                trial_timeout=1e9,
            )
        assert len(err.value.history) <= 1

    def test_zero_valid_trials_raises_with_histogram(self, regression_dataset):
        # A constant response makes r2 undefined in every trial.
        ds = regression_dataset.with_response(
            np.ones(regression_dataset.n_rows), task=REGRESSION
        )
        space = default_space(REGRESSION, y=ds.y, n_features=3)
        with pytest.raises(OptimizationError) as err:
            optimize(
                ds,
                space,
                Budget(600.0, 3),
                sampler="random",
                metric=get_metric("r2"),
                seed=0,
            )
        assert sum(err.value.failures.values()) == 3
        assert len(err.value.history) == 3

    def test_determinism_sequential(self, regression_dataset, tmp_path):
        space = default_space(REGRESSION, y=regression_dataset.y, n_features=3)
        outs = []
        for run in range(2):
            result = optimize(
                regression_dataset,
                space,
                Budget(600.0, 6),
                sampler="adaptive",
                metric=get_metric("mse"),
                seed=11,
                parallelism=1,
            )
            directory = tmp_path / f"run{run}"
            persist_history(result.history, directory, best=result.best)
            outs.append((directory / "history.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_parallel_same_ranking_keys(self, regression_dataset):
        space = default_space(REGRESSION, y=regression_dataset.y, n_features=3)
        result = optimize(
            regression_dataset,
            space,
            Budget(600.0, 8),
            sampler="random",
            metric=get_metric("mse"),
            seed=4,
            parallelism=4,
        )
        assert len(result.history) == 8
        assert [t.k for t in result.history] == list(range(8))

    def test_multiclass_end_to_end(self):
        from tabcash.tabular import MULTICLASS, NUMERIC, ColumnSchema, Dataset

        rng = np.random.default_rng(15)
        centers = [(-3.0, 0.0), (3.0, 0.0), (0.0, 4.0)]
        X = np.vstack([rng.normal(c, 0.6, (30, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 30)
        order = rng.permutation(90)
        ds = Dataset(
            X=X[order].astype(object),
            y=y[order].astype(np.int64),
            schema=(ColumnSchema("a", NUMERIC), ColumnSchema("b", NUMERIC)),
            response=ColumnSchema("y", NUMERIC),
            task=MULTICLASS,
            labels=(0, 1, 2),
        )
        space = default_space(MULTICLASS, n_features=2)
        result = optimize(
            ds,
            space,
            Budget(600.0, 6),
            sampler="random",
            metric=get_metric("accuracy"),
            seed=21,
        )
        bundle = result.best.predict_bundle(ds.X)
        assert bundle.probabilities.shape == (90, 3)
        assert result.history[result.best_k].eval_loss <= -0.5

    def test_constant_metric_tie_falls_back_to_trial_index(self, regression_dataset):
        from tabcash.metrics import Metric

        flat = Metric(
            id="flat_for_tie_test",
            direction="minimize",
            needs_probabilities=False,
            fn=lambda y, b: 0.0,
        )
        space = default_space(REGRESSION, y=regression_dataset.y, n_features=3)
        result = optimize(
            regression_dataset,
            space,
            Budget(600.0, 6),
            sampler="random",
            metric=flat,
            seed=8,
        )
        assert result.best_k == 0

    def test_invalid_trials_never_best(self):
        ds = make_regression_dataset(n=50, seed=9)
        counts = np.round(np.abs(ds.y) * 3).astype(float)
        ds = ds.with_response(counts, task=REGRESSION)
        space = default_space(REGRESSION, y=counts, n_features=3)
        result = optimize(
            ds,
            space,
            Budget(600.0, 12),
            sampler="random",
            metric=get_metric("poisson_deviance"),
            seed=5,
        )
        best_record = result.history[result.best_k]
        assert best_record.status == "valid"
        assert all(
            t.eval_loss is None or t.eval_loss >= best_record.eval_loss or t.k >= best_record.k
            for t in result.history
            if t.status == "valid"
        )


class TestPersistence:
    def test_history_line_count_and_manifest(self, regression_dataset, tmp_path):
        space = default_space(REGRESSION, y=regression_dataset.y, n_features=3)
        result = optimize(
            regression_dataset,
            space,
            Budget(600.0, 5),
            sampler="random",
            metric=get_metric("mse"),
            seed=6,
        )
        manifest = persist_history(
            result.history, tmp_path / "out", best=result.best, experiment="exp"
        )
        lines = (tmp_path / "out" / "history.jsonl").read_text().strip().splitlines()
        assert len(lines) == 5
        assert manifest["best_k"] == result.best_k
        assert manifest["n_trials"] == 5
        reloaded = load_pipeline(tmp_path / "out" / "best_pipeline.json")
        assert np.array_equal(
            reloaded.predict(regression_dataset.X), result.best.predict(regression_dataset.X)
        )

    def test_failure_histogram(self):
        class R:
            def __init__(self, status, reason):
                self.status = status
                self.reason = reason

        records = [R("valid", ""), R("failed", "x"), R("failed", "x"), R("invalid", "y")]
        assert failure_histogram(records) == {"x": 2, "y": 1}


class TestBudgetAndProtocol:
    def test_budget_validation(self):
        with pytest.raises(ConfigurationError):
            Budget(0.0, 5)
        with pytest.raises(ConfigurationError):
            Budget(10.0, 0)

    def test_protocol_validation(self):
        with pytest.raises(ConfigurationError):
            Protocol(mode="bootstrap")
        with pytest.raises(ConfigurationError):
            Protocol(mode="holdout", valid_fraction=0.0)
        with pytest.raises(ConfigurationError):
            Protocol(mode="kfold", folds=1)
