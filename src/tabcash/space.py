"""Hierarchical search space over the six pipeline stages, plus samplers.

A sampled :class:`PipelineSpec` fixes one (method, hyperparameters) pair
per stage. Two samplers ship by default: ``random`` draws every stage
independently; ``adaptive`` is an evolutionary scheme that, once history
accumulates, mutates one of the best specs seen so far. Both are pure
functions of (space, history, seed, trial index), so searches replay
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import balance, preprocess
from .errors import ConfigurationError
from .models import CLASSIFICATION_MODELS, MODEL_METHODS, REGRESSION_MODELS
from .tabular import REGRESSION, TASKS

STAGES = ("encode", "impute", "balance", "scale", "select", "model")

STAGE_METHODS = {
    "encode": preprocess.ENCODE_METHODS,
    "impute": preprocess.IMPUTE_METHODS,
    "balance": balance.BALANCE_METHODS,
    "scale": preprocess.SCALE_METHODS,
    "select": preprocess.SELECT_METHODS,
    "model": MODEL_METHODS,
}

_CONTAIN_TOL = 1e-9


@dataclass(frozen=True)
class Domain:
    """One hyperparameter range: categorical values, int range, or real range."""

    kind: str
    values: tuple = ()
    lo: float = 0.0
    hi: float = 0.0
    scale: str = "linear"

    def __post_init__(self):
        if self.kind not in ("categorical", "int", "real"):
            raise ConfigurationError(f"unknown domain kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.values:
                raise ConfigurationError("categorical domain needs values")
            return
        if self.lo > self.hi:
            raise ConfigurationError("domain requires lo <= hi")
        if self.kind == "real" and self.scale not in ("linear", "log"):
            raise ConfigurationError(f"unknown scale {self.scale!r}")
        if self.kind == "real" and self.scale == "log" and self.lo <= 0:
            raise ConfigurationError("log-scaled domain requires lo > 0")

    def sample(self, rng: np.random.Generator):
        if self.kind == "categorical":
            return self.values[int(rng.integers(len(self.values)))]
        if self.kind == "int":
            return int(rng.integers(int(self.lo), int(self.hi) + 1))
        if self.scale == "log":
            return float(
                min(max(math.exp(rng.uniform(math.log(self.lo), math.log(self.hi))), self.lo), self.hi)
            )
        return float(rng.uniform(self.lo, self.hi))

    def contains(self, value) -> bool:
        if self.kind == "categorical":
            return value in self.values
        if self.kind == "int":
            return float(value) == int(value) and self.lo <= value <= self.hi
        span = max(abs(self.lo), abs(self.hi), 1.0)
        return self.lo - _CONTAIN_TOL * span <= value <= self.hi + _CONTAIN_TOL * span

    def perturb(self, value, rng: np.random.Generator):
        """Shift by a uniform step of up to 10% domain width, clamped."""
        if self.kind == "categorical":
            return value
        if self.kind == "int":
            width = self.hi - self.lo
            moved = value + rng.uniform(-0.1, 0.1) * width
            return int(min(max(round(moved), self.lo), self.hi))
        if self.scale == "log":
            width = math.log(self.hi) - math.log(self.lo)
            moved = math.exp(math.log(value) + rng.uniform(-0.1, 0.1) * width)
            return float(min(max(moved, self.lo), self.hi))
        width = self.hi - self.lo
        return float(min(max(value + rng.uniform(-0.1, 0.1) * width, self.lo), self.hi))

    def to_dict(self) -> dict:
        if self.kind == "categorical":
            return {"kind": "categorical", "values": list(self.values)}
        d = {"kind": self.kind, "lo": self.lo, "hi": self.hi}
        if self.kind == "real":
            d["scale"] = self.scale
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Domain":
        if d["kind"] == "categorical":
            return cls(kind="categorical", values=tuple(d["values"]))
        return cls(
            kind=d["kind"], lo=d["lo"], hi=d["hi"], scale=d.get("scale", "linear")
        )


@dataclass(frozen=True)
class StageChoice:
    method: str
    params: dict

    def to_dict(self) -> dict:
        return {"method": self.method, "params": dict(sorted(self.params.items()))}


@dataclass(frozen=True)
class PipelineSpec:
    """One concrete pipeline: a (method, hyperparameters) pair per stage."""

    stages: dict
    seed: int

    def choice(self, stage: str) -> StageChoice:
        return self.stages[stage]

    def method(self, stage: str) -> str:
        return self.stages[stage].method

    def params(self, stage: str) -> dict:
        return dict(self.stages[stage].params)

    def summary(self) -> str:
        return " | ".join(f"{s}={self.stages[s].method}" for s in STAGES)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "stages": {s: self.stages[s].to_dict() for s in STAGES},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineSpec":
        stages = {
            s: StageChoice(d["stages"][s]["method"], dict(d["stages"][s]["params"]))
            for s in STAGES
        }
        return cls(stages=stages, seed=d["seed"])


@dataclass
class SearchSpace:
    """Per-stage method menus and per-method hyperparameter domains."""

    methods: dict = field(default_factory=dict)
    domains: dict = field(default_factory=dict)

    def __post_init__(self):
        for stage in STAGES:
            menu = self.methods.get(stage, ())
            if not menu:
                raise ConfigurationError(f"stage {stage!r} has an empty method menu")
            for m in menu:
                if m not in STAGE_METHODS[stage]:
                    raise ConfigurationError(
                        f"unknown method {m!r} for stage {stage!r}"
                    )
        self.methods = {s: tuple(self.methods[s]) for s in STAGES}
        self.domains = {
            (stage, method): dict(params)
            for (stage, method), params in self.domains.items()
        }

    def method_domains(self, stage: str, method: str) -> dict:
        return self.domains.get((stage, method), {})

    def replace_menu(self, stage: str, methods) -> "SearchSpace":
        new_methods = dict(self.methods)
        new_methods[stage] = tuple(methods)
        return SearchSpace(methods=new_methods, domains=dict(self.domains))

    def to_dict(self) -> dict:
        return {
            "methods": {s: list(m) for s, m in self.methods.items()},
            "domains": {
                f"{stage}:{method}": {
                    name: dom.to_dict() for name, dom in params.items()
                }
                for (stage, method), params in self.domains.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSpace":
        domains = {}
        for key, params in d.get("domains", {}).items():
            stage, method = key.split(":", 1)
            domains[(stage, method)] = {
                name: Domain.from_dict(dd) for name, dd in params.items()
            }
        return cls(methods=dict(d["methods"]), domains=domains)


def _is_nonneg_integer(y) -> bool:
    y = np.asarray(y, dtype=float)
    return bool((y >= 0).all() and (y == np.round(y)).all())


def default_space(task: str, y=None, n_features: int | None = None) -> SearchSpace:
    """Full default menus filtered by task, with declared default domains.

    ``y`` enables the count-model filter (the log-link GLM only joins the
    regression menu when the response is nonnegative integers).
    ``n_features`` bounds the top-k correlation selector.
    """
    if task not in TASKS:
        name = task if isinstance(task, str) else type(task).__name__
        raise ConfigurationError(f"unknown task {name!r}; expected one of {TASKS}")
    classification = task != REGRESSION
    if classification:
        model_menu = list(CLASSIFICATION_MODELS)
    else:
        model_menu = [
            m
            for m in REGRESSION_MODELS
            if m != "poisson_glm" or (y is not None and _is_nonneg_integer(y))
        ]
    topk_hi = max(1, n_features if n_features is not None else 30)

    methods = {
        "encode": ("ordinal", "onehot"),
        "impute": ("mean", "median", "mode", "constant", "knn"),
        "balance": balance.BALANCE_METHODS if classification else ("none",),
        "scale": ("none", "standardize", "minmax", "robust"),
        "select": ("none", "variance", "topk_corr"),
        "model": tuple(model_menu),
    }
    ratio_domain = Domain(kind="real", lo=1.0, hi=3.0)
    domains = {
        ("impute", "constant"): {"value": Domain(kind="categorical", values=(0.0,))},
        ("impute", "knn"): {"k": Domain(kind="int", lo=1, hi=10)},
        ("balance", "random_over"): {"ratio": ratio_domain},
        ("balance", "random_under"): {"ratio": ratio_domain},
        ("balance", "smote"): {
            "ratio": ratio_domain,
            "k": Domain(kind="int", lo=1, hi=10),
        },
        ("balance", "enn"): {"k": Domain(kind="int", lo=1, hi=10)},
        ("select", "variance"): {"threshold": Domain(kind="real", lo=0.0, hi=0.2)},
        ("select", "topk_corr"): {"k": Domain(kind="int", lo=1, hi=topk_hi)},
        ("model", "ridge"): {
            "alpha": Domain(kind="real", lo=1e-4, hi=1e2, scale="log")
        },
        ("model", "logistic"): {
            "alpha": Domain(kind="real", lo=1e-4, hi=1e2, scale="log")
        },
        ("model", "knn"): {"k": Domain(kind="int", lo=1, hi=50)},
        ("model", "cart"): {
            "max_depth": Domain(kind="int", lo=1, hi=20),
            "min_samples_split": Domain(kind="int", lo=2, hi=20),
            "min_samples_leaf": Domain(kind="int", lo=1, hi=10),
        },
        ("model", "random_forest"): {
            "n_trees": Domain(kind="int", lo=5, hi=50),
            "max_depth": Domain(kind="int", lo=2, hi=12),
            "min_samples_leaf": Domain(kind="int", lo=1, hi=10),
        },
        ("model", "gbt"): {
            "n_stages": Domain(kind="int", lo=10, hi=100),
            "learning_rate": Domain(kind="real", lo=0.01, hi=0.5, scale="log"),
            "max_depth": Domain(kind="int", lo=1, hi=6),
        },
    }
    domains = {
        key: params
        for key, params in domains.items()
        if key[1] in methods[key[0]]
    }
    return SearchSpace(methods=methods, domains=domains)


def apply_overrides(space: SearchSpace, overrides: dict) -> SearchSpace:
    """Apply per-stage menu allowlists and domain replacements from config."""
    methods = {s: list(m) for s, m in space.methods.items()}
    domains = dict(space.domains)
    for stage, spec in (overrides or {}).items():
        if stage not in STAGES:
            raise ConfigurationError(f"unknown stage {stage!r} in space overrides")
        allow = spec.get("methods")
        if allow is not None:
            methods[stage] = list(allow)
        for method, params in spec.get("domains", {}).items():
            current = dict(domains.get((stage, method), {}))
            for name, dd in params.items():
                current[name] = Domain.from_dict(dd)
            domains[(stage, method)] = current
    return SearchSpace(methods=methods, domains=domains)


def validate_spec(spec: PipelineSpec, space: SearchSpace) -> None:
    """Raise unless every stage method and hyperparameter fits the space."""
    for stage in STAGES:
        choice = spec.choice(stage)
        if choice.method not in space.methods[stage]:
            raise ConfigurationError(
                f"method {choice.method!r} is outside the {stage!r} menu"
            )
        domains = space.method_domains(stage, choice.method)
        if set(choice.params) != set(domains):
            raise ConfigurationError(
                f"hyperparameters {sorted(choice.params)} do not match the "
                f"domains {sorted(domains)} of {stage}:{choice.method}"
            )
        for name, value in choice.params.items():
            if not domains[name].contains(value):
                raise ConfigurationError(
                    f"{stage}:{choice.method} parameter {name}={value!r} "
                    "is outside its domain"
                )


def _sample_stage(space: SearchSpace, stage: str, rng: np.random.Generator) -> StageChoice:
    menu = space.methods[stage]
    method = menu[int(rng.integers(len(menu)))]
    domains = space.method_domains(stage, method)
    params = {name: domains[name].sample(rng) for name in sorted(domains)}
    return StageChoice(method, params)


def sample_random(space: SearchSpace, seed: int, k: int) -> PipelineSpec:
    """Uniform independent draw; a pure function of (space, seed, k)."""
    rng = np.random.default_rng([seed, k])
    stages = {stage: _sample_stage(space, stage, rng) for stage in STAGES}
    return PipelineSpec(stages=stages, seed=int(rng.integers(2**31)))


def _epsilon_schedule(k: int) -> float:
    return max(0.1, 1.0 - k / 20.0)


def sample_adaptive(
    space: SearchSpace,
    history,
    seed: int,
    k: int,
    epsilon: float | None = None,
    mutation_prob: float = 0.3,
    forced_stage: str | None = None,
) -> PipelineSpec:
    """Evolutionary draw: mutate one of the best valid specs seen so far.

    With probability ``epsilon`` (default schedule max(0.1, 1 - k/20)) or
    while no valid history exists, this falls back to ``sample_random``.
    Otherwise a parent is drawn uniformly from the best quarter of valid
    trials; one stage is resampled wholesale and every numeric
    hyperparameter of the others is perturbed with probability
    ``mutation_prob``.
    """
    rng = np.random.default_rng([seed, k, 1])
    eps = _epsilon_schedule(k) if epsilon is None else epsilon
    valid = [t for t in history if t.status == "valid"]
    if not valid or rng.uniform() < eps:
        return sample_random(space, seed, k)
    ranked = sorted(valid, key=lambda t: (t.eval_loss, t.k))
    top = ranked[: math.ceil(0.25 * len(ranked))]
    parent = top[int(rng.integers(len(top)))].spec
    resampled = forced_stage if forced_stage is not None else STAGES[int(rng.integers(len(STAGES)))]
    stages = {}
    for stage in STAGES:
        if stage == resampled:
            stages[stage] = _sample_stage(space, stage, rng)
            continue
        choice = parent.choice(stage)
        domains = space.method_domains(stage, choice.method)
        params = {}
        for name in sorted(choice.params):
            value = choice.params[name]
            dom = domains.get(name)
            if dom is not None and dom.kind in ("int", "real") and rng.uniform() < mutation_prob:
                value = dom.perturb(value, rng)
            params[name] = value
        stages[stage] = StageChoice(choice.method, params)
    return PipelineSpec(stages=stages, seed=int(rng.integers(2**31)))


def get_sampler(name: str):
    """Engine-facing sampler with the uniform (space, history, seed, k) call."""
    if name == "random":
        return lambda space, history, seed, k: sample_random(space, seed, k)
    if name == "adaptive":
        return sample_adaptive
    raise ConfigurationError(f"unknown search algorithm {name!r}")
