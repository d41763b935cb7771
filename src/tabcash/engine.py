"""Budgeted search loop: sample a pipeline spec, fit, score, record, rank.

Both budgets are audited before each trial starts: a new trial launches
only while evaluations and wall-clock time both remain, so total wall time
can overshoot the time budget by at most the trials already in flight.
Failed and invalid trials are recorded, never fatal; the winner is the
valid trial with the lowest engine loss (ties go to the earlier trial).
A trial keeps its losses, not its fitted pipelines: ``serve`` fits only
the trials served (the winner, or a stacking ensemble's members) after
the loop, outside the time budget and the per-trial timeout, so a k-fold
trial's ``fit_seconds`` in ``timings.jsonl`` includes no all-row refit.

With ``parallelism=1`` the whole search is a pure function of its seed.
Under parallelism, sampling stays serialized in trial-index order against
the history completed so far, and ranking by (loss, trial index) keeps the
outcome insensitive to completion order.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .balance import Balancer
from .errors import (
    ConfigurationError,
    FormatError,
    InvalidPredictionError,
    OptimizationError,
    TabcashError,
    UndefinedMetricError,
)
from .metrics import Metric, PredictionBundle
from .models import Model, make_model
from .neighbors import shared_graphs
from .preprocess import Encoder, Imputer, Scaler, Selector
from .space import PipelineSpec, SearchSpace, get_sampler
from .tabular import ColumnSchema, Dataset, FoldPlan, Split, make_folds, split_dataset

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1  # history.jsonl and manifest.json
FORMAT_VERSION = 3  # saved pipelines and ensembles

HISTORY_FILE = "history.jsonl"
TIMINGS_FILE = "timings.jsonl"
MANIFEST_FILE = "manifest.json"
BEST_PIPELINE_FILE = "best_pipeline.json"

VALID = "valid"
INVALID = "invalid"
FAILED = "failed"


@dataclass(frozen=True)
class Budget:
    """Wall-clock and evaluation-count caps, audited before each trial."""

    time_seconds: float
    max_evals: int

    def __post_init__(self):
        if self.time_seconds <= 0:
            raise ConfigurationError("time budget must be positive")
        if self.max_evals < 1:
            raise ConfigurationError("evaluation budget must be at least 1")


@dataclass(frozen=True)
class Protocol:
    """How a trial turns a dataset into an evaluation loss."""

    mode: str = "holdout"
    valid_fraction: float = 0.2
    folds: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("none", "holdout", "kfold"):
            raise ConfigurationError(f"unknown validation mode {self.mode!r}")
        if self.mode == "holdout" and not 0 < self.valid_fraction < 1:
            raise ConfigurationError("holdout needs valid_fraction in (0, 1)")
        if self.mode == "kfold" and self.folds < 2:
            raise ConfigurationError("kfold needs at least 2 folds")

    def plan(self, dataset: Dataset):
        if self.mode == "none":
            return None
        if self.mode == "holdout":
            return split_dataset(dataset, 0.0, self.valid_fraction, self.seed)
        return make_folds(dataset.n_rows, self.folds, self.seed)


@dataclass
class TrialRecord:
    """Outcome of one evaluation round; ``pipeline`` is set once ``serve`` fits it."""

    k: int
    spec: PipelineSpec
    status: str
    eval_loss: float | None = None
    reason: str = ""
    fit_seconds: float = 0.0
    fold_losses: list[float] | None = None
    fit: partial | None = field(default=None, repr=False)
    pipeline: "TrainedPipeline | None" = None

    def to_json_line(self) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "k": self.k,
            "status": self.status,
            "loss": self.eval_loss,
            "reason": self.reason,
            "fold_losses": self.fold_losses,
            "spec": self.spec.to_dict(),
        }
        return json.dumps(payload, sort_keys=True)


def check_format_version(d: dict, kind: str) -> None:
    """Reject a saved model written in another file format."""
    version = d.get("schema_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"unsupported {kind} format version {version!r} (expected {FORMAT_VERSION}); "
            "refit the model to write it in the current format"
        )


def schema_to_json(schema) -> list[dict]:
    return [{"name": c.name, "kind": c.kind, "categories": list(c.categories)} for c in schema]


def schema_from_json(items) -> tuple[ColumnSchema, ...]:
    return tuple(
        ColumnSchema(c["name"], c["kind"], categories=tuple(c["categories"])) for c in items
    )


def input_format_to_json(model) -> dict:
    """The fit's columns, plus its missing-cell tokens when they are not the defaults."""
    out = {"feature_schema": schema_to_json(model.feature_schema)}
    if model.missing_tokens is not None:
        out["missing_tokens"] = list(model.missing_tokens)
    return out


def missing_tokens_from_json(d: dict) -> list[str] | None:
    """The saved missing-cell tokens; None (the defaults) when the file has none."""
    tokens = d.get("missing_tokens")
    if tokens is not None and not (
        isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
    ):
        raise FormatError("missing_tokens must be a list of strings")
    return tokens


class TrainedPipeline:
    """Fitted stage components plus model; balancing never runs at predict."""

    def __init__(
        self,
        spec: PipelineSpec,
        encoder: Encoder,
        imputer: Imputer,
        scaler: Scaler,
        selector: Selector,
        model,
        task: str,
        n_classes: int,
        labels: tuple,
        feature_schema,
        trial: int = -1,
        missing_tokens: list[str] | None = None,
    ):
        self.spec = spec
        self.encoder = encoder
        self.imputer = imputer
        self.scaler = scaler
        self.selector = selector
        self.model = model
        self.task = task
        self.n_classes = n_classes
        self.labels = tuple(labels)
        self.feature_schema = tuple(feature_schema)
        self.trial = trial
        self.missing_tokens = missing_tokens

    def is_classification(self) -> bool:
        return self.n_classes > 0

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Run the fitted preprocessing stages on a raw feature table.

        The encoder returns a fresh matrix, so the imputer, scaler and
        selector work on it in place rather than each allocating a copy.
        """
        out = self.encoder.transform(X)
        out = self.imputer.transform(out, copy=False)
        out = self.scaler.transform(out, copy=False)
        return self.selector.transform(out, copy=False)

    def predict_bundle(self, X: np.ndarray, offset=None) -> PredictionBundle:
        return self.model.predict_bundle(self.transform(X), offset=offset)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_bundle(X).values

    def align(self, dataset: Dataset) -> tuple[np.ndarray, list[str]]:
        """Project a dataset onto the fit-time columns by name.

        Extra columns are ignored (reported back); a missing column is an
        error naming it.
        """
        available = {c.name: j for j, c in enumerate(dataset.schema)}
        cols = []
        for schema in self.feature_schema:
            if schema.name not in available:
                raise ConfigurationError(f"input is missing feature column {schema.name!r}")
            cols.append(available[schema.name])
        ignored = [c.name for c in dataset.schema if c.name not in
                   {s.name for s in self.feature_schema}]
        return dataset.X[:, cols], ignored

    def to_dict(self) -> dict:
        return {
            "schema_version": FORMAT_VERSION,
            "kind": "pipeline",
            "task": self.task,
            "n_classes": self.n_classes,
            "labels": list(self.labels),
            "trial": self.trial,
            **input_format_to_json(self),
            "spec": self.spec.to_dict(),
            "encoder": self.encoder.to_state(),
            "imputer": self.imputer.to_state(),
            "scaler": self.scaler.to_state(),
            "selector": self.selector.to_state(),
            "model": self.model.to_state(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedPipeline":
        check_format_version(d, "pipeline")
        return cls(
            spec=PipelineSpec.from_dict(d["spec"]),
            encoder=Encoder.from_state(d["encoder"]),
            imputer=Imputer.from_state(d["imputer"]),
            scaler=Scaler.from_state(d["scaler"]),
            selector=Selector.from_state(d["selector"]),
            model=Model.from_state(d["model"]),
            task=d["task"],
            n_classes=d["n_classes"],
            labels=tuple(d["labels"]),
            feature_schema=schema_from_json(d["feature_schema"]),
            trial=d["trial"],
            missing_tokens=missing_tokens_from_json(d),
        )


def fit_pipeline_on_rows(spec: PipelineSpec, dataset: Dataset, rows) -> TrainedPipeline:
    """Fit all six stages on the given rows, in pipeline order.

    Balancing applies after imputation, to these training rows only, and
    only for classification tasks. The dataset's offset, if any, reaches
    the model, and a model that takes none raises ``ConfigurationError``.
    """
    rows = np.asarray(rows, dtype=int)
    X_raw = dataset.X[rows]
    y_raw = dataset.y[rows]
    classification = dataset.is_classification()
    model_task = "classification" if classification else "regression"

    encoder = Encoder(spec.method("encode"), **spec.params("encode"))
    Xe = encoder.fit(X_raw, dataset.schema).transform(X_raw)
    imputer = Imputer(spec.method("impute"), **spec.params("impute"))
    Xi = imputer.fit(Xe).transform(Xe)
    if classification and spec.method("balance") != "none":
        balancer = Balancer(spec.method("balance"), **spec.params("balance"))
        Xb, yb = balancer.fit_resample(Xi, y_raw, seed=spec.seed)
    else:
        Xb, yb = Xi, y_raw
    scaler = Scaler(spec.method("scale"), **spec.params("scale"))
    Xs = scaler.fit(Xb).transform(Xb)
    selector = Selector(spec.method("select"), **spec.params("select"))
    Xf = selector.fit(Xs, yb).transform(Xs)

    model_params = spec.params("model")
    if spec.method("model") == "random_forest":
        model_params.setdefault("seed", spec.seed)
    model = make_model(spec.method("model"), model_task, **model_params)
    fit_args = model.offset_args(None if dataset.offset is None else dataset.offset[rows])
    if classification:
        fit_args["n_classes"] = dataset.n_classes
    model.fit(Xf, yb, **fit_args)
    return TrainedPipeline(
        spec=spec,
        encoder=encoder,
        imputer=imputer,
        scaler=scaler,
        selector=selector,
        model=model,
        task=dataset.task,
        n_classes=dataset.n_classes if classification else 0,
        labels=dataset.labels,
        feature_schema=dataset.schema,
    )


def _failure(exc: Exception, k: int) -> tuple[str, str]:
    """The status and reason trial ``k`` records for an exception; ``MemoryError`` propagates."""
    if isinstance(exc, MemoryError):
        raise exc
    if isinstance(exc, (InvalidPredictionError, UndefinedMetricError)):
        return INVALID, str(exc)
    if isinstance(exc, (TabcashError, np.linalg.LinAlgError, FloatingPointError, ValueError)):
        return FAILED, f"{type(exc).__name__}: {exc}"
    # A bug in one trial must not end the search and lose its history.
    logger.warning("trial %d raised an unexpected error", k, exc_info=True)
    return FAILED, f"internal: {type(exc).__name__}: {exc}"


def evaluate(
    spec: PipelineSpec,
    dataset: Dataset,
    plan,
    metric: Metric,
    k: int = 0,
) -> TrialRecord:
    """Fit and score one spec on each (train rows, scored rows) part of a plan.

    Holdout has one part, ``None`` one (every row scored on itself), k-fold
    one per fold; the loss is their mean. A valid record keeps how to fit
    the pipeline it would serve, not the pipeline. Metric validity
    violations (nonpositive rates, one-class folds) make a trial
    ``invalid`` and fit errors ``failed``; neither interrupts the search.
    """
    started = time.monotonic()
    record = TrialRecord(k=k, spec=spec, status=FAILED)
    try:
        serve_rows = np.arange(dataset.n_rows)
        if isinstance(plan, FoldPlan):
            parts = [plan.fold_indices(fold) for fold in range(plan.k)]
        elif isinstance(plan, Split):
            parts, serve_rows = [(plan.train_indices, plan.valid_indices)], plan.train_indices
        elif plan is None:
            parts = [(serve_rows, serve_rows)]
        else:
            raise ConfigurationError(f"unknown evaluation plan {type(plan).__name__}")
        losses = []
        for train, scored in parts:
            bundle = fit_pipeline_on_rows(spec, dataset, train).predict_bundle(dataset.X[scored])
            losses.append(metric.engine_loss(dataset.y[scored], bundle))
        if isinstance(plan, FoldPlan):
            record.fold_losses = [float(v) for v in losses]
        loss = float(np.mean(losses))
        if not np.isfinite(loss):
            raise InvalidPredictionError("non-finite evaluation loss")
        record.status = VALID
        record.eval_loss = loss
        record.fit = partial(fit_pipeline_on_rows, spec, dataset, serve_rows)
    except Exception as exc:
        record.status, record.reason = _failure(exc, k)
    record.fit_seconds = time.monotonic() - started
    return record


def _ranked(history) -> list[TrialRecord]:
    """The valid trials, best first: by loss, ties to the earlier trial."""
    return sorted((t for t in history if t.status == VALID), key=lambda t: (t.eval_loss, t.k))


def serve(history, n: int) -> list[TrialRecord]:
    """Fit the ``n`` best valid trials, in rank order, and return their records.

    Each fit is cached on its record, stamped with the trial index, so a
    trial served twice is fitted once. A trial whose fit fails becomes
    ``failed`` with its reason, and the next valid trial takes its place.
    """
    served = []
    for record in _ranked(history):
        if len(served) == n:
            break
        try:
            record.pipeline = record.pipeline or record.fit()
        except Exception as exc:
            record.status, record.reason = _failure(exc, record.k)
            record.eval_loss = record.fold_losses = None
            continue
        record.pipeline.trial = record.k
        served.append(record)
    return served


@dataclass
class SearchResult:
    best: TrainedPipeline
    best_k: int
    history: list[TrialRecord]
    elapsed_seconds: float
    protocol: Protocol = field(default=Protocol())


def incumbent_curve(history) -> list[tuple[int, float]]:
    """(trial index, best valid loss so far) pairs; non-increasing by design."""
    curve = []
    best = None
    for rec in sorted(history, key=lambda t: t.k):
        if rec.status == VALID and (best is None or rec.eval_loss < best):
            best = rec.eval_loss
        if best is not None:
            curve.append((rec.k, best))
    return curve


def failure_histogram(history) -> dict[str, int]:
    return dict(Counter(t.reason or t.status for t in history if t.status != VALID))


# Every trial, and the serving fit, balances the same training rows: ENN and
# Tomek share one neighbour graph per table until the search returns or raises.
@shared_graphs()
def optimize(
    dataset: Dataset,
    space: SearchSpace,
    budget: Budget,
    sampler="random",
    metric: Metric | None = None,
    seed: int = 0,
    parallelism: int = 1,
    protocol: Protocol | None = None,
    trial_timeout: float | None = None,
) -> SearchResult:
    """Run the budgeted loop and return the best pipeline plus full history.

    ``trial_timeout`` defaults to ten times the per-trial share of the time
    budget; a trial that overruns it is recorded as failed-by-timeout (the
    check is cooperative, applied when the trial finishes). ``serve`` fits
    the best after the loop, outside the time budget and the timeout.
    """
    if metric is None:
        raise ConfigurationError("optimize requires a metric")
    if dataset.offset is not None:
        raise ConfigurationError("the search takes no offset; load the table without one")
    if parallelism < 1:
        raise ConfigurationError("parallelism must be at least 1")
    if isinstance(sampler, str):
        sampler = get_sampler(sampler)
    protocol = protocol or Protocol()
    plan = protocol.plan(dataset)
    if trial_timeout is None:
        trial_timeout = budget.time_seconds / budget.max_evals * 10.0

    start = time.monotonic()
    completed: list[TrialRecord] = []

    def audit_allows_start() -> bool:
        return time.monotonic() - start < budget.time_seconds

    def finalize(record: TrialRecord) -> TrialRecord:
        if record.fit_seconds > trial_timeout:
            record.status = FAILED
            record.reason = (
                f"timeout: trial took {record.fit_seconds:.3f}s "
                f"(limit {trial_timeout:.3f}s)"
            )
            record.eval_loss = None
        return record

    if parallelism == 1:
        k = 0
        while k < budget.max_evals and audit_allows_start():
            spec = sampler(space, completed, seed, k)
            completed.append(finalize(evaluate(spec, dataset, plan, metric, k=k)))
            k += 1
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            futures = {}
            k = 0
            while True:
                while (
                    len(futures) < parallelism
                    and k < budget.max_evals
                    and audit_allows_start()
                ):
                    spec = sampler(space, list(completed), seed, k)
                    futures[pool.submit(evaluate, spec, dataset, plan, metric, k)] = k
                    k += 1
                if not futures:
                    break
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for fut in done:
                    completed.append(finalize(fut.result()))
                    del futures[fut]

    history = sorted(completed, key=lambda t: t.k)
    elapsed = time.monotonic() - start
    best = next(iter(serve(history, 1)), None)
    if best is None:
        raise OptimizationError(
            f"no valid trial among {len(history)} executed",
            failure_histogram(history),
            history,
        )
    logger.info(
        "search done: %d trials, best k=%d loss=%.6g (%.1fs)",
        len(history),
        best.k,
        best.eval_loss,
        elapsed,
    )
    return SearchResult(
        best=best.pipeline,
        best_k=best.k,
        history=history,
        elapsed_seconds=elapsed,
        protocol=protocol,
    )


def persist_history(
    history,
    directory,
    best: TrainedPipeline | None = None,
    experiment: str = "search",
    config: dict | None = None,
    elapsed_seconds: float | None = None,
) -> dict:
    """Write history, timings, manifest, and the winning pipeline.

    The history file is deterministic for a fixed seed (timings live in a
    sidecar file, so reruns of the same sequential search are identical
    byte for byte).
    """
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
        records = sorted(history, key=lambda t: t.k)
        with open(out / HISTORY_FILE, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(rec.to_json_line() + "\n")
        with open(out / TIMINGS_FILE, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(
                    json.dumps({"k": rec.k, "fit_seconds": rec.fit_seconds}) + "\n"
                )
        ranked = _ranked(records)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "experiment": experiment,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "config": config,
            "n_trials": len(records),
            "best_k": ranked[0].k if ranked else None,
            "budget_consumed": {
                "evaluations": len(records),
                "seconds": elapsed_seconds
                if elapsed_seconds is not None
                else sum(r.fit_seconds for r in records),
            },
            "failures": failure_histogram(records),
        }
        with open(out / MANIFEST_FILE, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        if best is not None:
            save_pipeline(best, out / BEST_PIPELINE_FILE)
    except OSError as exc:
        raise TabcashError(f"cannot write history under {directory}: {exc}") from exc
    return manifest


def save_pipeline(pipeline: TrainedPipeline, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pipeline.to_dict(), fh)


def load_saved(path, builders: dict):
    """Build a saved model with the builder registered for its 'kind' tag.

    A file that is not a JSON object of a known kind, or whose fields
    outside the component states are missing or mistyped, is a FormatError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot load model from {path}: {exc}") from exc
    kind = payload.get("kind") if isinstance(payload, dict) else None
    if not isinstance(kind, str) or kind not in builders:
        raise FormatError(f"{path} holds no recognizable model (kind={kind!r})")
    try:
        return builders[kind](payload)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise FormatError(
            f"malformed model file {path}: {type(exc).__name__}: {exc}"
        ) from None


def load_pipeline(path) -> TrainedPipeline:
    return load_saved(path, {"pipeline": TrainedPipeline.from_dict})


def load_history(directory) -> list[dict]:
    """Raw history records (dicts) from a persisted search directory."""
    path = Path(directory) / HISTORY_FILE
    try:
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read history at {path}: {exc}") from exc
    for rec in records:
        if rec.get("schema_version") != SCHEMA_VERSION:
            raise FormatError("history schema version mismatch")
    return records
