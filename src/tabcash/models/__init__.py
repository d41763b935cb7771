"""Native model zoo: every model is fit/predict with frozen trained state.

Classifiers additionally expose ``predict_proba`` returning a row-stochastic
(n_rows, n_classes) table. ``make_model`` is the single construction point
used by the search engine; ``Model.from_state`` restores a serialized model.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from .linear import LogisticModel, PoissonGLM, RidgeRegression
from .simple import DummyModel, KNNModel, Model
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

_TASK_FREE = ("ridge", "poisson_glm", "logistic", "gbt")


def make_model(method: str, task: str, **params) -> Model:
    """Build a model for ``task`` in {'regression', 'classification'}."""
    if task not in ("regression", "classification"):
        raise ConfigurationError(f"unknown model task {task!r}")
    menu = REGRESSION_MODELS if task == "regression" else CLASSIFICATION_MODELS
    if method not in menu:
        raise ConfigurationError(f"model {method!r} does not support {task} tasks")
    cls = _CLASSES[method]
    if method in _TASK_FREE:
        return cls(**params)
    return cls(task=task, **params)


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
