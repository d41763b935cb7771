"""Seeded synthetic datasets for tests, benchmarks, and the synth command.

Three families: count regression with a log-linear rate (y is Poisson
around exp(intercept + X beta)), imbalanced two-blob binary classification
with exact class counts at the requested ratio, and plain Gaussian linear
regression. Optional no-signal categorical columns and uniformly injected
missing cells exercise the encoding and imputation stages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .tabular import BINARY, NUMERIC, CATEGORICAL, REGRESSION, ColumnSchema, Dataset

KINDS = ("poisson", "imbalanced_binary", "gaussian")

_CATEGORY_LEVELS = ("a", "b", "c")

# Euclidean distance between blob centers, in units of the noise scale.
_BLOB_SEPARATION = 3.0


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n_rows: int = 1000
    n_features: int = 5
    coefficients: tuple | None = None
    intercept: float = 0.0
    imbalance_ratio: float = 9.0
    noise_scale: float = 1.0
    missing_fraction: float = 0.0
    n_categorical: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown generator kind {self.kind!r}")
        if self.n_rows < 10:
            raise ConfigurationError("generator needs at least 10 rows")
        if self.n_features < 1:
            raise ConfigurationError("generator needs at least 1 numeric feature")
        if self.imbalance_ratio < 1:
            raise ConfigurationError("imbalance ratio must be at least 1")
        if not 0 <= self.missing_fraction <= 0.5:
            raise ConfigurationError("missing fraction must be in [0, 0.5]")
        if self.n_categorical < 0:
            raise ConfigurationError("categorical column count must be nonnegative")
        if self.coefficients is not None and len(self.coefficients) != self.n_features:
            raise ConfigurationError("coefficient length must equal n_features")


def default_coefficients(n_features: int) -> tuple:
    return tuple(0.3 * (-1.0) ** j for j in range(n_features))


def _missing_cells(n_rows: int, width: int, fraction: float, rng) -> np.ndarray:
    """Flat positions, row-major over ``(n_rows, width)``, of the cells to blank."""
    n_cells = n_rows * width
    if fraction <= 0 or n_cells == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(n_cells, size=int(fraction * n_cells), replace=False)


def generate(spec: GeneratorSpec) -> Dataset:
    """Deterministic dataset for the given generator spec."""
    rng = np.random.default_rng(spec.seed)
    beta = np.asarray(
        spec.coefficients
        if spec.coefficients is not None
        else default_coefficients(spec.n_features),
        dtype=float,
    )

    if spec.kind == "imbalanced_binary":
        n_minor = int(round(spec.n_rows / (1.0 + spec.imbalance_ratio)))
        if n_minor < 1:
            raise ConfigurationError("imbalance ratio leaves no minority rows")
        n_major = spec.n_rows - n_minor
        offset = _BLOB_SEPARATION / np.sqrt(spec.n_features)
        major = rng.normal(0.0, spec.noise_scale, (n_major, spec.n_features))
        minor = rng.normal(offset, spec.noise_scale, (n_minor, spec.n_features))
        Xnum = np.vstack([major, minor])
        y = np.concatenate([np.zeros(n_major, dtype=int), np.ones(n_minor, dtype=int)])
        order = rng.permutation(spec.n_rows)
        Xnum, y = Xnum[order], y[order]
        task, labels = BINARY, (0, 1)
        response = ColumnSchema("response", NUMERIC)
        y_final: np.ndarray = y.astype(np.int64)
    else:
        Xnum = rng.normal(0.0, 1.0, (spec.n_rows, spec.n_features))
        eta = spec.intercept + Xnum @ beta
        if spec.kind == "poisson":
            y_final = rng.poisson(np.exp(eta)).astype(float)
        else:
            y_final = eta + rng.normal(0.0, spec.noise_scale, spec.n_rows)
        task, labels = REGRESSION, ()
        response = ColumnSchema("response", NUMERIC)

    levels = np.array(_CATEGORY_LEVELS, dtype=object)
    Xcat = np.empty((spec.n_rows, spec.n_categorical), dtype=object)
    for c in range(spec.n_categorical):
        Xcat[:, c] = levels[rng.integers(0, len(levels), spec.n_rows)]
    width = spec.n_features + spec.n_categorical
    rows, cols = np.divmod(_missing_cells(spec.n_rows, width, spec.missing_fraction, rng), width)
    numeric = cols < spec.n_features
    Xnum[rows[numeric], cols[numeric]] = np.nan
    Xcat[rows[~numeric], cols[~numeric] - spec.n_features] = None
    X = np.concatenate([Xnum, Xcat], axis=1) if spec.n_categorical else Xnum

    missing_by_col = np.bincount(cols, minlength=width).tolist()
    schemas = [
        ColumnSchema(f"x{j}", NUMERIC, missing_count=missing_by_col[j])
        for j in range(spec.n_features)
    ] + [
        ColumnSchema(
            f"c{c}",
            CATEGORICAL,
            missing_count=missing_by_col[spec.n_features + c],
            categories=_CATEGORY_LEVELS,
        )
        for c in range(spec.n_categorical)
    ]
    return Dataset(
        X=X,
        y=y_final,
        schema=tuple(schemas),
        response=response,
        task=task,
        labels=labels,
    )
