"""Native model zoo: every model is fit/predict with frozen trained state.

Classifiers additionally expose ``predict_proba`` returning a row-stochastic
(n_rows, n_classes) table; a regressor's raises ``ConfigurationError``.
``make_model`` is the single construction point used by the search engine;
``Model.from_state`` restores a serialized model.

To add a model, subclass ``Model``:

- set ``method``, and ``_fitted``, the fitted attributes that ``model.json``
  stores (the first one marks a fitted model);
- set ``task`` as a class attribute, or take it as a parameter and store
  ``check_task(task)``;
- define the class's own ``fit``, starting with ``self._fit_inputs``, which
  checks the inputs, codes class labels and sets ``n_features_`` and
  ``n_classes_``;
- define its own ``predict`` (and a classifier's ``predict_proba``),
  starting with ``self._inputs``, which checks that the model is fitted and
  that ``X`` has no NaN and the fitted width.

Each class defines these methods itself, even where a parent's would do:
``bench/tracing.py`` times each model family by wrapping the ``fit``,
``predict`` and ``predict_proba`` in that class's own namespace, and a
class without its own ``fit`` cannot be traced.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .linear import LogisticModel, PoissonGLM, RidgeRegression
from .simple import DummyModel, KNNModel, Model, check_task
from .trees import Cart, GradientBoosted, RandomForest

REGRESSION_MODELS = ("dummy", "ridge", "poisson_glm", "knn", "cart", "random_forest", "gbt")
CLASSIFICATION_MODELS = ("dummy", "logistic", "knn", "cart", "random_forest")
MODEL_METHODS = tuple(sorted(set(REGRESSION_MODELS) | set(CLASSIFICATION_MODELS)))

_CLASSES = {
    "dummy": DummyModel,
    "ridge": RidgeRegression,
    "logistic": LogisticModel,
    "poisson_glm": PoissonGLM,
    "knn": KNNModel,
    "cart": Cart,
    "random_forest": RandomForest,
    "gbt": GradientBoosted,
}


def make_model(method: str, task: str, **params) -> Model:
    """Build a model for ``task`` in {'regression', 'classification'}."""
    menu = REGRESSION_MODELS if check_task(task) == "regression" else CLASSIFICATION_MODELS
    if method not in menu:
        raise ConfigurationError(f"model {method!r} does not support {task} tasks")
    cls = _CLASSES[method]
    if "task" in cls._param_names():
        return cls(task=task, **params)
    return cls(**params)


__all__ = [
    "Model",
    "DummyModel",
    "KNNModel",
    "RidgeRegression",
    "LogisticModel",
    "PoissonGLM",
    "Cart",
    "RandomForest",
    "GradientBoosted",
    "REGRESSION_MODELS",
    "CLASSIFICATION_MODELS",
    "MODEL_METHODS",
    "make_model",
]
