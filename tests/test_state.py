"""The generic state codec: every fitted component survives a JSON round trip."""

import json

import numpy as np
import pytest

from tabcash.base import Component
from tabcash.engine import fit_pipeline_on_rows, load_pipeline, save_pipeline
from tabcash.ensemble import load_model
from tabcash.errors import FormatError
from tabcash.models import (
    Cart,
    DummyModel,
    GradientBoosted,
    KNNModel,
    LogisticModel,
    Model,
    PoissonGLM,
    RandomForest,
    RidgeRegression,
)
from tabcash.preprocess import Encoder, Imputer, Scaler, Selector
from tabcash.space import PipelineSpec, StageChoice
from tabcash.tabular import ColumnSchema

RNG = np.random.default_rng(5)
X = RNG.normal(size=(40, 3))
Y_REG = X @ np.array([1.0, -1.0, 0.5]) + 0.1 * RNG.normal(size=40)
Y_COUNT = RNG.poisson(np.exp(0.2 + 0.3 * X[:, 0])).astype(float)
Y_BIN = (X[:, 0] > 0).astype(int)
Y_3 = np.digitize(X[:, 0], [-0.5, 0.5])


def through_json(obj: Component):
    return type(obj).from_state(json.loads(json.dumps(obj.to_state())))


def assert_same_fitted(a, b):
    assert type(a) is type(b)
    assert a.get_params() == b.get_params()
    for name in type(a)._fitted:
        va, vb = getattr(a, name), getattr(b, name)
        if isinstance(va, np.ndarray):
            assert vb.dtype == va.dtype and vb.shape == va.shape
            assert vb.tobytes() == va.tobytes()
            assert vb.flags.writeable
        else:
            assert va == vb


def assert_same_output(a, b, *args):
    for name in ("transform", "predict", "predict_proba"):
        if hasattr(a, name) and (name != "predict_proba" or getattr(a, "is_classifier", False)):
            out_a, out_b = getattr(a, name)(*args), getattr(b, name)(*args)
            assert out_a.dtype == out_b.dtype and out_a.tobytes() == out_b.tobytes()


MODELS = [
    pytest.param(lambda: DummyModel("regression").fit(X, Y_REG), id="dummy-regression"),
    pytest.param(lambda: DummyModel("classification").fit(X, Y_BIN), id="dummy-classification"),
    pytest.param(lambda: KNNModel("classification", k=3).fit(X, Y_3), id="knn-int-labels"),
    pytest.param(lambda: KNNModel("regression", k=3).fit(X, Y_REG), id="knn-regression"),
    pytest.param(lambda: RidgeRegression(alpha=0.5).fit(X, Y_REG), id="ridge"),
    pytest.param(lambda: LogisticModel().fit(X, Y_3, n_classes=3), id="logistic-3-class"),
    pytest.param(lambda: PoissonGLM().fit(X, Y_COUNT), id="poisson_glm"),
    pytest.param(lambda: Cart("classification", max_depth=3).fit(X, Y_3), id="cart"),
    pytest.param(lambda: RandomForest("regression", n_trees=3, seed=2).fit(X, Y_REG),
                 id="random_forest"),
    pytest.param(lambda: GradientBoosted(n_stages=4).fit(X, Y_REG), id="gbt"),
]


@pytest.mark.parametrize("build", MODELS)
def test_model_round_trip(build):
    model = build()
    clone = through_json(model)
    assert_same_fitted(model, clone)
    assert_same_output(model, clone, X)


CAT = ColumnSchema("c", "categorical", categories=("a", "b"))
NUM = ColumnSchema("x", "numeric")
RAW = np.array([["a", 1.0], ["b", np.nan], [None, 2.5], ["a", 4.0]], dtype=object)
HOLEY = np.array([[1.0, np.nan], [np.nan, 2.0], [3.0, 4.0], [np.nan, np.nan]])


@pytest.mark.parametrize(
    "build, data",
    [
        pytest.param(lambda: Encoder("onehot").fit(RAW, [CAT, NUM]), RAW, id="encoder-onehot"),
        pytest.param(lambda: Encoder("ordinal").fit(RAW, [CAT, NUM]), RAW, id="encoder-ordinal"),
        pytest.param(lambda: Imputer("median").fit(HOLEY), HOLEY, id="imputer-median"),
        pytest.param(lambda: Imputer("knn", k=2).fit(HOLEY), HOLEY, id="imputer-knn"),
        pytest.param(lambda: Imputer("knn").fit(HOLEY[[0, 1]]), HOLEY,
                     id="imputer-knn-no-complete"),
        pytest.param(lambda: Scaler("robust").fit(X), X, id="scaler"),
        pytest.param(lambda: Selector("topk_corr", k=2).fit(X, Y_REG), X, id="selector"),
    ],
)
def test_stage_round_trip(build, data):
    stage = build()
    clone = through_json(stage)
    assert_same_fitted(stage, clone)
    assert_same_output(stage, clone, data)


def test_arrays_are_little_endian_base64():
    state = Scaler().fit(X).to_state()
    center = state["fitted"]["center_"]
    assert set(center) == {"dtype", "shape", "data"}
    assert center["dtype"] == "<f8" and center["shape"] == [3]


def test_big_endian_array_is_written_little_endian_and_read_native():
    sc = Scaler().fit(X)
    sc.center_ = sc.center_.astype(">f8")
    assert sc.to_state()["fitted"]["center_"]["dtype"] == "<f8"
    clone = through_json(sc)
    assert clone.center_.dtype.isnative
    assert np.array_equal(clone.center_, sc.center_)


def scaler_state():
    return Scaler().fit(X).to_state()


@pytest.mark.parametrize(
    "state, owner, message",
    [
        ({**scaler_state(), "class": "Nope"}, Component, "'Nope'"),
        (scaler_state(), Model, "not a Model"),
        ({**scaler_state(), "params": {"method": "minmax", "bogus": 1}}, Scaler, "bogus"),
        ({**scaler_state(), "fitted": {"center_": None}}, Scaler, "spread_"),
        ({**scaler_state(), "params": {"method": "cubic"}}, Scaler, "cubic"),
        ({"class": "Scaler"}, Scaler, "params"),
        ([1, 2], Scaler, "malformed"),
    ],
    ids=["unknown-class", "scaler-in-model-slot", "unknown-param", "missing-fitted-key",
         "bad-param-value", "missing-section", "not-a-dict"],
)
def test_malformed_state_is_format_error(state, owner, message):
    with pytest.raises(FormatError) as err:
        owner.from_state(state)
    assert message in str(err.value)


def test_corrupt_array_is_format_error():
    state = scaler_state()
    state["fitted"]["center_"]["data"] = state["fitted"]["center_"]["data"][:-4]
    with pytest.raises(FormatError):
        Scaler.from_state(state)


def saved_pipeline(tmp_path, dataset, model):
    """A fitted pipeline saved to ``model.json``, checked to load and predict the same."""
    methods = {"encode": "ordinal", "impute": "mean", "balance": "none",
               "scale": "standardize", "select": "none", "model": model}
    spec = PipelineSpec({s: StageChoice(m, {}) for s, m in methods.items()}, seed=0)
    pipe = fit_pipeline_on_rows(spec, dataset, np.arange(40))
    path = tmp_path / "model.json"
    save_pipeline(pipe, path)
    assert np.array_equal(load_pipeline(path).predict(dataset.X), pipe.predict(dataset.X))
    return path


def assert_asks_for_refit(path, version):
    payload = json.loads(path.read_text())
    payload["schema_version"] = version
    path.write_text(json.dumps(payload))
    for load in (load_pipeline, load_model):
        with pytest.raises(FormatError) as err:
            load(path)
        assert "refit" in str(err.value)


def test_version_one_model_file_asks_for_refit(tmp_path, regression_dataset):
    assert_asks_for_refit(saved_pipeline(tmp_path, regression_dataset, "ridge"), 1)


@pytest.mark.parametrize("model", ["cart", "random_forest", "gbt"])
def test_version_two_tree_model_file_asks_for_refit(tmp_path, regression_dataset, model):
    """Version 2 stored each tree as nested dicts; version 3 stores one node table."""
    path = saved_pipeline(tmp_path, regression_dataset, model)
    assert "roots_" in json.loads(path.read_text())["model"]["fitted"]
    assert_asks_for_refit(path, 2)


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.left_.__setitem__(1, 0), "cycle"),
    (lambda m: m.right_.__setitem__(0, 10**6), "out of bounds"),
    (lambda m: m.feature_.__setitem__(0, 3), "outside the fitted width"),
    (lambda m: setattr(m, "value_", m.value_[:-1]), "differ in length"),
    (lambda m: setattr(m, "roots_", m.roots_[:0]), "empty"),
], ids=["cycle", "child-out-of-range", "feature-out-of-range", "short-values", "no-tree"])
def test_malformed_node_table_is_format_error(edit, message):
    model = Cart("regression", max_depth=3).fit(X, Y_REG)
    assert model.left_[0] == 1
    edit(model)
    with pytest.raises(FormatError, match=message):
        Model.from_state(json.loads(json.dumps(model.to_state())))
