"""Command-line front end: fit, predict, history, glm-baseline, synth.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 search
produced no valid pipeline. The default parallelism can be set through
the TABCASH_PARALLELISM environment variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ensemble as ensemble_mod
from . import engine, metrics, space as space_mod, synthdata
from .errors import (
    ConfigurationError,
    ContractError,
    DataError,
    EnsembleError,
    FormatError,
    OptimizationError,
    RegistrationError,
    SchemaError,
    TabcashError,
)
from .models import LogisticModel, PoissonGLM, RidgeRegression
from .preprocess import Encoder, Imputer
from .tabular import (
    BINARY,
    DEFAULT_MISSING_TOKENS,
    MULTICLASS,
    REGRESSION,
    TASKS,
    Dataset,
    load_csv,
    read_csv_header,
    write_csv,
)

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_OPTIMIZATION = 4

ENV_PARALLELISM = "TABCASH_PARALLELISM"

MODEL_FILE = "model.json"
REPORT_FILE = "report.json"

# The metrics each task is reported on; an objective listed here must
# match the task. Custom metrics are not listed and pass unchecked.
_TASK_METRICS = {
    REGRESSION: ("mse", "mae", "r2", "poisson_deviance"),
    BINARY: ("accuracy", "auc", "gini"),
    MULTICLASS: ("accuracy",),
}


@dataclass
class ExperimentConfig:
    """Everything one fit run needs; round-trips through JSON unchanged."""

    model_name: str = "experiment"
    data_path: str = ""
    response_column: str = ""
    test_path: str | None = None
    objective: str = "mse"
    max_evals: int = 16
    timeout: float = 600.0
    validation: str = "holdout"
    valid_size: float = 0.2
    folds: int = 4
    search_algo: str = "random"
    ensemble: str = "none"
    n_members: int = ensemble_mod.DEFAULT_MEMBERS
    voting: str | None = None
    feature_fraction: float = ensemble_mod.DEFAULT_FEATURE_FRACTION
    space: dict = field(default_factory=dict)
    task: str = "auto"
    seed: int = 0
    parallelism: int | None = None
    output_dir: str = "runs"
    offset_column: str | None = None
    missing_tokens: list = field(default_factory=lambda: sorted(DEFAULT_MISSING_TOKENS))
    column_kinds: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.model_name:
            raise ConfigurationError("model_name must be non-empty")
        # The budget, protocol and sampler check their own fields.
        self.budget()
        self.protocol()
        space_mod.get_sampler(self.search_algo)
        if self.ensemble != "none" and self.ensemble not in ensemble_mod.STRATEGIES:
            raise ConfigurationError(f"unknown ensemble strategy {self.ensemble!r}")
        if self.n_members < 1:
            raise ConfigurationError("n_members must be at least 1")
        if not 0 < self.feature_fraction <= 1:
            raise ConfigurationError("feature_fraction must be in (0, 1]")
        if self.task != "auto" and self.task not in TASKS:
            raise ConfigurationError(f"unknown task {self.task!r}")
        if self.seed < 0:
            raise ConfigurationError("seed must be nonnegative")
        if self.parallelism is not None and self.parallelism < 1:
            raise ConfigurationError("parallelism must be at least 1")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return asdict(self)

    def resolved_parallelism(self) -> int:
        if self.parallelism is not None:
            return self.parallelism
        env = os.environ.get(ENV_PARALLELISM)
        if env:
            try:
                value = int(env)
            except ValueError:
                raise ConfigurationError(
                    f"{ENV_PARALLELISM} must be an integer, got {env!r}"
                ) from None
            if value < 1:
                raise ConfigurationError(f"{ENV_PARALLELISM} must be at least 1")
            return value
        return 1

    def protocol(self) -> engine.Protocol:
        return engine.Protocol(
            mode=self.validation,
            valid_fraction=self.valid_size,
            folds=self.folds,
            seed=self.seed,
        )

    def budget(self) -> engine.Budget:
        return engine.Budget(time_seconds=self.timeout, max_evals=self.max_evals)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigurationError(f"config {path} must hold a JSON object")
    payload.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return ExperimentConfig.from_dict(payload)


def _load_data(config: ExperimentConfig) -> tuple[Dataset, Dataset | None, metrics.Metric]:
    """Train and test tables plus the objective, checked against the task."""
    train = load_csv(
        config.data_path,
        config.response_column,
        missing_tokens=config.missing_tokens,
        task=None if config.task == "auto" else config.task,
        column_kinds=config.column_kinds,
    )
    metric = metrics.get_metric(config.objective)
    _check_objective(metric, train)
    return train, _load_test(config, train), metric


def _load_test(config: ExperimentConfig, train: Dataset) -> Dataset | None:
    if not config.test_path:
        return None
    test = load_csv(
        config.test_path,
        config.response_column,
        missing_tokens=config.missing_tokens,
        task=train.task,
        column_kinds=config.column_kinds,
    )
    if not train.is_classification():
        return test
    mapping = {label: code for code, label in enumerate(train.labels)}
    originals = test.original_labels(test.y)
    unknown = sorted({str(v) for v in originals if v not in mapping})
    if unknown:
        raise DataError(f"test response contains unseen class labels: {unknown}")
    y = np.asarray([mapping[v] for v in originals], dtype=np.int64)
    return replace(test, y=y, task=train.task, labels=train.labels)


def _check_objective(metric: metrics.Metric, dataset: Dataset) -> None:
    """Reject objective/response mismatches before any search starts."""
    mid = metric.id
    suited = [task for task, ids in _TASK_METRICS.items() if mid in ids]
    if suited and dataset.task not in suited:
        raise ConfigurationError(f"objective {mid!r} requires a {' or '.join(suited)} task")
    if mid == "poisson_deviance" and (np.asarray(dataset.y, dtype=float) < 0).any():
        raise ConfigurationError(
            "objective 'poisson_deviance' requires a nonnegative response"
        )


def _report(dataset: Dataset, bundle: metrics.PredictionBundle) -> dict:
    """Per-metric report; metrics undefined on this output are skipped."""
    out: dict[str, float] = {}
    for mid in _TASK_METRICS[dataset.task]:
        try:
            out[mid] = metrics.get_metric(mid).raw(dataset.y, bundle)
        except TabcashError:
            continue
    return out


def _write_report(out_dir: Path, report: dict, prefix: str = "") -> None:
    with open(out_dir / REPORT_FILE, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    for split_name, values in report.items():
        rendered = "  ".join(f"{k}={v:.6g}" for k, v in sorted(values.items()))
        print(f"{prefix}{split_name}: {rendered}")


def _write_predictions(path, bundle, labels) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if bundle.probabilities is not None:
            lookup = np.asarray(labels, dtype=object)
            header = ["prediction"] + [f"class_{label}" for label in labels]
            writer.writerow(header)
            values = lookup[bundle.values.astype(int)]
            for v, row in zip(values, bundle.probabilities):
                writer.writerow([v] + [repr(float(p)) for p in row])
        else:
            writer.writerow(["prediction"])
            for v in bundle.values:
                writer.writerow([repr(float(v))])


def _fit_model(config: ExperimentConfig, train: Dataset, metric, search_space):
    """Dispatch on the ensemble strategy; persists histories, returns the model."""
    search = dict(
        budget=config.budget(),
        sampler=space_mod.get_sampler(config.search_algo),
        metric=metric,
        seed=config.seed,
        parallelism=config.resolved_parallelism(),
        protocol=config.protocol(),
    )
    out_dir = Path(config.output_dir) / config.model_name
    echo = dict(experiment=config.model_name, config=config.to_dict())
    default_tokens = set(config.missing_tokens) == DEFAULT_MISSING_TOKENS
    tokens = None if default_tokens else list(config.missing_tokens)

    if config.ensemble in ("none", "stacking"):
        try:
            result = engine.optimize(train, search_space, **search)
        except OptimizationError as exc:
            # History is persisted even when the whole search failed.
            engine.persist_history(exc.history, out_dir, **echo)
            raise
        # best_pipeline.json is served too, so it reads cells as the fit did.
        result.best.missing_tokens = tokens
        if config.ensemble == "none":
            model = result.best
        else:
            model = ensemble_mod.build_stacking(
                result.history, config.n_members, voting=config.voting
            )
        engine.persist_history(
            result.history,
            out_dir,
            best=result.best,
            elapsed_seconds=result.elapsed_seconds,
            **echo,
        )
    else:
        histories = []
        try:
            if config.ensemble == "bagging":
                model, histories = ensemble_mod.build_bagging(
                    train,
                    search_space,
                    n_members=config.n_members,
                    feature_fraction=config.feature_fraction,
                    voting=config.voting,
                    **search,
                )
            else:
                model, histories = ensemble_mod.build_boosting(
                    train, search_space, n_members=config.n_members, **search
                )
        except EnsembleError as exc:
            histories = exc.histories
            raise
        finally:
            # Finished and failed group histories alike, one directory each.
            for h, history in enumerate(histories, start=1):
                group = f"group_{h:02d}"
                engine.persist_history(
                    history,
                    out_dir / group,
                    experiment=f"{config.model_name}/{group}",
                    config=echo["config"] if h == 1 else None,
                )
    model.missing_tokens = tokens
    return model


def cmd_fit(config: ExperimentConfig) -> int:
    train, test, metric = _load_data(config)
    search_space = space_mod.apply_overrides(
        space_mod.default_space(train.task, y=train.y, n_features=train.n_features),
        config.space,
    )
    out_dir = Path(config.output_dir) / config.model_name
    out_dir.mkdir(parents=True, exist_ok=True)

    model = _fit_model(config, train, metric, search_space)
    ensemble_mod.save_model(model, out_dir / MODEL_FILE)

    splits = {"train": train} if test is None else {"train": train, "test": test}
    report = {}
    for split_name, dataset in splits.items():
        X = dataset.X
        if dataset.feature_names != train.feature_names:
            X, ignored = model.align(dataset)
            if ignored:
                logger.warning("ignoring unknown test columns: %s", ignored)
        bundle = model.predict_bundle(X)
        report[split_name] = _report(dataset, bundle)
        _write_predictions(out_dir / f"predictions_{split_name}.csv", bundle, train.labels)
    _write_report(out_dir, report)
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def cmd_predict(model_path, data_path, output_path) -> int:
    model = ensemble_mod.load_model(model_path)
    # Reload columns under the kinds and missing tokens frozen at fit time,
    # so a column forced categorical does not re-infer as numeric here and
    # a fit-time missing token is not read as a value.
    header = set(read_csv_header(data_path))
    kinds = {c.name: c.kind for c in model.feature_schema if c.name in header}
    data = load_csv(
        data_path,
        response_column=None,
        missing_tokens=(
            DEFAULT_MISSING_TOKENS if model.missing_tokens is None else model.missing_tokens
        ),
        column_kinds=kinds,
    )
    X, ignored = model.align(data)
    if ignored:
        print(f"warning: ignoring unknown columns {ignored}", file=sys.stderr)
    bundle = model.predict_bundle(X)
    _write_predictions(output_path, bundle, model.labels)
    print(f"predictions written to {output_path}")
    return EXIT_OK


def _format_history_row(rec: dict, seconds: float | None) -> str:
    spec = space_mod.PipelineSpec.from_dict(rec["spec"])
    loss = "-" if rec["loss"] is None else f"{rec['loss']:.6g}"
    time_s = "-" if seconds is None else f"{seconds:.2f}s"
    return (
        f"k={rec['k']:<4d} status={rec['status']:<8s} loss={loss:<12s} "
        f"time={time_s:<9s} {spec.summary()}"
    )


def _load_all_history(directory) -> tuple[list[dict], dict[int, float]]:
    directory = Path(directory)
    if (directory / engine.HISTORY_FILE).exists():
        groups = [directory]
    else:
        groups = sorted(p for p in directory.glob("group_*") if p.is_dir())
        if not groups:
            raise FormatError(f"no history found under {directory}")
    records: list[dict] = []
    timings: dict[int, float] = {}
    offset = 0
    for group in groups:
        part = engine.load_history(group)
        timing_path = group / engine.TIMINGS_FILE
        part_timings = {}
        if timing_path.exists():
            with open(timing_path, encoding="utf-8") as fh:
                for line in fh:
                    if line.strip():
                        t = json.loads(line)
                        part_timings[t["k"]] = t["fit_seconds"]
        for rec in part:
            timings[rec["k"] + offset] = part_timings.get(rec["k"])
            rec = dict(rec)
            rec["k"] = rec["k"] + offset
            records.append(rec)
        offset += len(part)
    return records, timings


def cmd_history(directory, top: int = 10) -> int:
    records, timings = _load_all_history(directory)
    valid = [r for r in records if r["status"] == "valid"]
    ranked = sorted(valid, key=lambda r: (r["loss"], r["k"]))[:top]
    print(f"top {len(ranked)} of {len(valid)} valid trials ({len(records)} total):")
    for rec in ranked:
        print("  " + _format_history_row(rec, timings.get(rec["k"])))
    print("incumbent curve (trial -> best engine loss so far):")
    best = None
    for rec in sorted(records, key=lambda r: r["k"]):
        if rec["status"] == "valid" and (best is None or rec["loss"] < best):
            best = rec["loss"]
        if best is not None:
            print(f"  {rec['k']:>4d} {best:.6g}")
    return EXIT_OK


def _glm_for_task(train: Dataset):
    if train.is_classification():
        return LogisticModel()
    y = np.asarray(train.y, dtype=float)
    if (y >= 0).all() and (y == np.round(y)).all():
        return PoissonGLM()
    return RidgeRegression(alpha=1e-3)


def _split_offset(dataset: Dataset, column: str, path) -> tuple[Dataset, np.ndarray]:
    """The table without the exposure column, and the log of that column."""
    names = list(dataset.feature_names)
    if column not in names:
        raise ConfigurationError(f"offset column {column!r} not in {path}")
    j = names.index(column)
    try:
        exposure = dataset.X[:, j].astype(float)
    except (TypeError, ValueError):
        exposure = np.array([np.nan])
    if np.isnan(exposure).any() or (exposure <= 0).any():
        raise DataError(f"offset column {column!r} in {path} must be positive and complete")
    keep = np.ones(dataset.n_features, dtype=bool)
    keep[j] = False
    return dataset.select_features(keep), np.log(exposure)


def cmd_glm_baseline(config: ExperimentConfig) -> int:
    """Fit the task-matched GLM on one-hot encoded, mean-imputed data."""
    train, test, _ = _load_data(config)
    splits = {"train": train} if test is None else {"train": train, "test": test}
    offsets = dict.fromkeys(splits)
    if config.offset_column:
        paths = {"train": config.data_path, "test": config.test_path}
        for name, dataset in splits.items():
            splits[name], offsets[name] = _split_offset(dataset, config.offset_column, paths[name])
        train = splits["train"]

    encoder = Encoder("onehot").fit(train.X, train.schema)
    imputer = Imputer("mean").fit(encoder.transform(train.X))
    Xt = imputer.transform(encoder.transform(train.X))
    model = _glm_for_task(train)
    counts = isinstance(model, PoissonGLM)
    if counts:
        model.fit(Xt, train.y, offset=offsets["train"])
    elif train.is_classification():
        model.fit(Xt, train.y, n_classes=train.n_classes)
    elif config.offset_column:
        raise ConfigurationError("offset is only supported for count (Poisson) baselines")
    else:
        model.fit(Xt, train.y)

    report = {}
    for name, dataset in splits.items():
        X = imputer.transform(encoder.transform(dataset.X))
        if counts:
            bundle = metrics.PredictionBundle.regression(model.predict(X, offset=offsets[name]))
        else:
            bundle = model.predict_bundle(X)
        report[name] = _report(dataset, bundle)

    out_dir = Path(config.output_dir) / f"{config.model_name}_glm"
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_report(out_dir, report, prefix="glm ")
    print(f"report written to {out_dir / REPORT_FILE}")
    return EXIT_OK


def cmd_synth(args) -> int:
    coefficients = None
    if args.coefficients:
        coefficients = tuple(float(v) for v in args.coefficients.split(","))
    spec = synthdata.GeneratorSpec(
        kind=args.kind,
        n_rows=args.rows,
        n_features=args.features,
        coefficients=coefficients,
        intercept=args.intercept,
        imbalance_ratio=args.ratio,
        noise_scale=args.noise,
        missing_fraction=args.missing_fraction,
        n_categorical=args.categorical,
        seed=args.seed,
    )
    dataset = synthdata.generate(spec)
    write_csv(dataset, args.out)
    print(f"wrote {dataset.n_rows} rows x {dataset.n_features} features to {args.out}")
    return EXIT_OK


# Config fields with a command-line flag, and the flag's argparse type.
# `space`, `column_kinds` and `missing_tokens` are set in the config file only.
_FLAG_TYPES = dict(
    model_name=str, data_path=str, response_column=str, test_path=str, objective=str,
    max_evals=int, timeout=float, validation=str, valid_size=float, folds=int,
    search_algo=str, ensemble=str, n_members=int, voting=str, feature_fraction=float,
    task=str, seed=int, parallelism=int, output_dir=str, offset_column=str,
)
_FLAG_NAMES = {"data_path": "--data", "test_path": "--test-data"}


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    for name, kind in _FLAG_TYPES.items():
        flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        parser.add_argument(flag, dest=name, type=kind)


def _config_from_args(args) -> ExperimentConfig:
    return load_config(args.config, {name: getattr(args, name) for name in _FLAG_TYPES})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabcash",
        description="Budgeted pipeline search for tabular supervised learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="run the configured search and save artifacts")
    _add_config_arguments(fit)

    predict = sub.add_parser("predict", help="apply a saved model to a CSV")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--output", required=True)

    history = sub.add_parser("history", help="show top trials and incumbent curve")
    history.add_argument("--dir", required=True)
    history.add_argument("--top", type=int, default=10)

    glm = sub.add_parser("glm-baseline", help="fit the task-matched GLM benchmark")
    _add_config_arguments(glm)

    synth = sub.add_parser("synth", help="generate a synthetic CSV dataset")
    synth.add_argument("--kind", choices=synthdata.KINDS, required=True)
    synth.add_argument("--rows", type=int, default=1000)
    synth.add_argument("--features", type=int, default=5)
    synth.add_argument("--coefficients", default=None)
    synth.add_argument("--intercept", type=float, default=0.0)
    synth.add_argument("--ratio", type=float, default=9.0)
    synth.add_argument("--noise", type=float, default=1.0)
    synth.add_argument("--missing-fraction", type=float, default=0.0)
    synth.add_argument("--categorical", type=int, default=0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fit":
            return cmd_fit(_config_from_args(args))
        if args.command == "predict":
            return cmd_predict(args.model, args.data, args.output)
        if args.command == "history":
            return cmd_history(args.dir, args.top)
        if args.command == "glm-baseline":
            return cmd_glm_baseline(_config_from_args(args))
        if args.command == "synth":
            return cmd_synth(args)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigurationError, RegistrationError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SchemaError, DataError, FormatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OptimizationError, EnsembleError) as exc:
        print(f"optimization failed: {exc}", file=sys.stderr)
        for reason, count in sorted(exc.failures.items()):
            print(f"  {count:>4d} x {reason}", file=sys.stderr)
        return EXIT_OPTIMIZATION
    except TabcashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
