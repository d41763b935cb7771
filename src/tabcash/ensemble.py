"""Pipeline ensembles: stacking, bagging over feature subsets, boosting.

Stacking reuses the top pipelines of a finished search, no refitting.
Bagging runs an independent search per random feature subset with budgets
split across subsets, and each member only ever sees its own columns.
Boosting (regression only) chains searches on residual responses, and its
prediction is the exact sum of the stage predictions.

Voting: regression ensembles aggregate member values (mean, median, max,
or sum for boosting); classification ensembles vote soft (summed
probabilities) or hard (majority of predicted classes, vote fractions
reported as probabilities). Ties go to the lowest class index.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    FORMAT_VERSION,
    Budget,
    Protocol,
    TrainedPipeline,
    check_format_version,
    input_format_to_json,
    load_saved,
    missing_tokens_from_json,
    optimize,
    schema_from_json,
)
from .errors import (
    ConfigurationError,
    EnsembleError,
    OptimizationError,
)
from .metrics import Metric, PredictionBundle
from .space import SearchSpace
from .tabular import REGRESSION, Dataset

logger = logging.getLogger(__name__)

STRATEGIES = ("stacking", "bagging", "boosting")
REGRESSION_VOTES = ("mean", "median", "max")
CLASSIFICATION_VOTES = ("soft", "hard")

DEFAULT_MEMBERS = 5
DEFAULT_FEATURE_FRACTION = 0.8


@dataclass(frozen=True)
class FeatureMask:
    """Binary keep-mask over the original feature columns."""

    mask: tuple

    def __post_init__(self):
        if not any(self.mask):
            raise ConfigurationError("feature mask keeps no columns")

    @property
    def n_selected(self) -> int:
        return int(sum(self.mask))

    def as_bool(self) -> np.ndarray:
        return np.asarray(self.mask, dtype=bool)


@dataclass
class EnsembleMember:
    pipeline: TrainedPipeline
    mask: FeatureMask | None = None
    tag: int = 0


def default_voting(strategy: str, classification: bool) -> str:
    if strategy == "boosting":
        return "sum"
    return "soft" if classification else "mean"


class EnsembleModel:
    """H ranked pipelines plus a voting mechanism."""

    def __init__(
        self,
        strategy: str,
        voting: str,
        members: list[EnsembleMember],
        feature_schema=None,
        missing_tokens: list[str] | None = None,
    ):
        if strategy not in STRATEGIES:
            raise ConfigurationError(f"unknown ensemble strategy {strategy!r}")
        if not members:
            raise ConfigurationError("an ensemble needs at least one member")
        head = members[0].pipeline
        classification = head.is_classification()
        if strategy == "boosting":
            if classification:
                raise ConfigurationError("boosting supports regression tasks only")
            if voting != "sum":
                raise ConfigurationError("boosting requires sum voting")
        elif classification:
            if voting not in CLASSIFICATION_VOTES:
                raise ConfigurationError(
                    f"classification voting must be one of {CLASSIFICATION_VOTES}"
                )
        elif voting not in REGRESSION_VOTES:
            raise ConfigurationError(
                f"regression voting must be one of {REGRESSION_VOTES}"
            )
        self.strategy = strategy
        self.voting = voting
        self.members = list(members)
        self.task = head.task
        self.n_classes = head.n_classes
        self.labels = head.labels
        if feature_schema is None and members[0].mask is None:
            feature_schema = head.feature_schema
        if feature_schema is None and members[0].mask is not None:
            raise ConfigurationError(
                "masked (bagging) ensembles need the full-width feature schema"
            )
        self.feature_schema = tuple(feature_schema)
        self.missing_tokens = missing_tokens

    @property
    def n_members(self) -> int:
        return len(self.members)

    def is_classification(self) -> bool:
        return self.n_classes > 0

    def _member_bundle(self, member: EnsembleMember, X: np.ndarray) -> PredictionBundle:
        if member.mask is not None:
            X = X[:, member.mask.as_bool()]
        return member.pipeline.predict_bundle(X)

    def predict_bundle(self, X: np.ndarray) -> PredictionBundle:
        bundles = [self._member_bundle(m, X) for m in self.members]
        if self.is_classification():
            if self.voting == "soft":
                total = np.sum([b.probabilities for b in bundles], axis=0)
            else:
                total = np.zeros((len(X), self.n_classes))
                for b in bundles:
                    total[np.arange(len(X)), b.values.astype(int)] += 1.0
            values = np.argmax(total, axis=1)
            return PredictionBundle(values=values, probabilities=total / self.n_members)
        stack = np.vstack([b.values for b in bundles])
        if self.voting == "sum":
            values = stack.sum(axis=0)
        elif self.voting == "mean":
            values = stack.mean(axis=0)
        elif self.voting == "median":
            values = np.median(stack, axis=0)
        else:
            values = stack.max(axis=0)
        return PredictionBundle.regression(values)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_bundle(X).values

    align = TrainedPipeline.align

    def to_dict(self) -> dict:
        return {
            "schema_version": FORMAT_VERSION,
            "kind": "ensemble",
            "strategy": self.strategy,
            "voting": self.voting,
            "task": self.task,
            "n_classes": self.n_classes,
            "labels": list(self.labels),
            **input_format_to_json(self),
            "members": [
                {
                    "tag": m.tag,
                    "mask": None if m.mask is None else list(m.mask.mask),
                    "pipeline": m.pipeline.to_dict(),
                }
                for m in self.members
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnsembleModel":
        check_format_version(d, "ensemble")
        members = [
            EnsembleMember(
                pipeline=TrainedPipeline.from_dict(m["pipeline"]),
                mask=None if m["mask"] is None else FeatureMask(tuple(m["mask"])),
                tag=m["tag"],
            )
            for m in d["members"]
        ]
        return cls(
            strategy=d["strategy"],
            voting=d["voting"],
            members=members,
            feature_schema=schema_from_json(d["feature_schema"]),
            missing_tokens=missing_tokens_from_json(d),
        )


def build_stacking(history, n_members: int, voting: str | None = None) -> EnsembleModel:
    """Stack the top pipelines of a finished search, ranked by (loss, k)."""
    if n_members < 1:
        raise ConfigurationError("ensemble size must be at least 1")
    valid = [t for t in history if t.status == "valid" and t.pipeline is not None]
    if not valid:
        raise EnsembleError("no valid pipelines available for stacking")
    if len(valid) < n_members:
        logger.warning(
            "only %d valid pipelines available, shrinking ensemble from %d",
            len(valid),
            n_members,
        )
        n_members = len(valid)
    ranked = sorted(valid, key=lambda t: (t.eval_loss, t.k))[:n_members]
    members = [
        EnsembleMember(pipeline=t.pipeline, tag=rank)
        for rank, t in enumerate(ranked, start=1)
    ]
    head = members[0].pipeline
    voting = voting or default_voting("stacking", head.is_classification())
    return EnsembleModel("stacking", voting, members)


def _per_member_budget(budget: Budget, n_members: int) -> Budget:
    evals = budget.max_evals // n_members
    if evals < 1:
        raise ConfigurationError(
            f"evaluation budget {budget.max_evals} leaves no trials for "
            f"{n_members} members"
        )
    return Budget(time_seconds=budget.time_seconds / n_members, max_evals=evals)


def _derived_seed(seed: int, salt: int, index: int) -> int:
    return int(np.random.default_rng([seed, salt, index]).integers(2**31))


def draw_feature_masks(
    n_features: int, n_members: int, feature_fraction: float, seed: int
) -> list[FeatureMask]:
    if not 0 < feature_fraction <= 1:
        raise ConfigurationError("feature_fraction must be in (0, 1]")
    keep = math.ceil(feature_fraction * n_features)
    if keep < 1:
        raise ConfigurationError("feature_fraction keeps no columns")
    masks = []
    for h in range(n_members):
        rng = np.random.default_rng([seed, 101, h])
        chosen = rng.choice(n_features, size=keep, replace=False)
        mask = np.zeros(n_features, dtype=int)
        mask[chosen] = 1
        masks.append(FeatureMask(tuple(int(v) for v in mask)))
    return masks


def build_bagging(
    dataset: Dataset,
    space: SearchSpace,
    budget: Budget,
    sampler,
    metric: Metric,
    n_members: int = DEFAULT_MEMBERS,
    feature_fraction: float = DEFAULT_FEATURE_FRACTION,
    seed: int = 0,
    parallelism: int = 1,
    protocol: Protocol | None = None,
    voting: str | None = None,
) -> tuple[EnsembleModel, list]:
    """One independent search per random feature subset; budgets split evenly.

    Returns the ensemble and the per-subset histories (list of lists). A
    subset with no valid trial raises ``EnsembleError`` carrying them.
    """
    if n_members < 1:
        raise ConfigurationError("ensemble size must be at least 1")
    sub_budget = _per_member_budget(budget, n_members)
    masks = draw_feature_masks(dataset.n_features, n_members, feature_fraction, seed)
    members = []
    histories = []
    for h, mask in enumerate(masks, start=1):
        subset = dataset.select_features(mask.as_bool())
        try:
            result = optimize(
                subset,
                space,
                sub_budget,
                sampler,
                metric,
                seed=_derived_seed(seed, 977, h),
                parallelism=parallelism,
                protocol=protocol,
            )
        except OptimizationError as exc:
            raise EnsembleError(
                f"feature subset {h} produced no valid pipeline: {exc}",
                exc.failures,
                histories + [exc.history],
            ) from exc
        members.append(EnsembleMember(pipeline=result.best, mask=mask, tag=h))
        histories.append(result.history)
    voting = voting or default_voting("bagging", dataset.is_classification())
    model = EnsembleModel("bagging", voting, members, feature_schema=dataset.schema)
    return model, histories


def build_boosting(
    dataset: Dataset,
    space: SearchSpace,
    budget: Budget,
    sampler,
    metric: Metric,
    n_members: int = DEFAULT_MEMBERS,
    seed: int = 0,
    parallelism: int = 1,
    protocol: Protocol | None = None,
) -> tuple[EnsembleModel, list]:
    """Sequential searches on residual responses; prediction sums the stages.

    Each stage is evaluated in its own residual space. A stage with no
    valid trial truncates the ensemble at the last good stage; its history
    is still returned, last in the list.
    """
    if dataset.is_classification():
        raise ConfigurationError("boosting supports regression tasks only")
    if n_members < 1:
        raise ConfigurationError("ensemble size must be at least 1")
    sub_budget = _per_member_budget(budget, n_members)
    residual = np.asarray(dataset.y, dtype=float).copy()
    members = []
    histories = []
    for h in range(1, n_members + 1):
        stage_data = dataset.with_response(residual, task=REGRESSION)
        try:
            result = optimize(
                stage_data,
                space,
                sub_budget,
                sampler,
                metric,
                seed=_derived_seed(seed, 1399, h),
                parallelism=parallelism,
                protocol=protocol,
            )
        except OptimizationError as exc:
            histories.append(exc.history)
            if not members:
                raise EnsembleError(
                    f"boosting stage 1 failed: {exc}", exc.failures, histories
                ) from exc
            logger.warning("boosting stage %d had no valid trial, truncating: %s", h, exc)
            break
        members.append(EnsembleMember(pipeline=result.best, tag=h))
        histories.append(result.history)
        residual = residual - result.best.predict(dataset.X)
    return EnsembleModel("boosting", "sum", members), histories


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model.to_dict(), fh)


def load_model(path):
    """Load either a single pipeline or an ensemble, by its 'kind' tag."""
    return load_saved(
        path, {"pipeline": TrainedPipeline.from_dict, "ensemble": EnsembleModel.from_dict}
    )
