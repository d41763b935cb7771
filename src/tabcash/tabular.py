"""Column-typed tabular data: CSV ingestion, splits, folds, log1p transform.

A :class:`Dataset` is immutable after construction and safe to share across
concurrent trials. A feature table whose columns are all numeric is a
float64 matrix, NaN marking a missing cell. A table with a categorical
column is an object matrix: numeric cells are floats (NaN = missing),
categorical cells are strings (None = missing). Classification responses
are re-indexed to codes ``0..n_classes-1`` with the original labels kept
for reporting.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DataError, DomainError, SchemaError

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "NaN", "null"})

REGRESSION = "regression"
BINARY = "binary_classification"
MULTICLASS = "multiclass_classification"
TASKS = (REGRESSION, BINARY, MULTICLASS)

MAX_CLASS_LEVELS = 20

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# The characters csv.writer quotes a field for in its excel dialect.
_needs_quotes = re.compile('[,"\r\n]').search


@dataclass(frozen=True)
class ColumnSchema:
    """Name, kind, and category vocabulary of one column."""

    name: str
    kind: str
    missing_count: int = 0
    categories: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ConfigurationError(f"unknown column kind {self.kind!r}")
        if (self.kind == CATEGORICAL) != bool(self.categories):
            raise SchemaError(
                f"column {self.name!r}: categories must be non-empty iff categorical"
            )


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, optional response, schemas, and task kind.

    ``X`` has shape (n_rows, n_features). It is float64 when every column
    is numeric (construction converts it), and an object array when a
    column is categorical. ``y`` is float64 for regression and int64 class
    codes for classification; ``labels`` maps codes back to the original
    response values. ``offset`` is a per-row log exposure for a count
    model, kept out of ``X`` like the response; None when there is none.
    """

    X: np.ndarray
    y: np.ndarray | None
    schema: tuple[ColumnSchema, ...]
    response: ColumnSchema | None = None
    task: str | None = None
    labels: tuple = ()
    offset: np.ndarray | None = None

    def __post_init__(self):
        if self.X.ndim != 2:
            raise SchemaError("feature table must be 2-dimensional")
        if len(self.schema) != self.X.shape[1]:
            raise SchemaError("schema length does not match feature column count")
        for name, array in (("response", self.y), ("offset", self.offset)):
            if array is not None and len(array) != self.X.shape[0]:
                raise SchemaError(f"{name} length does not match row count")
        if self.task is not None and self.task not in TASKS:
            raise ConfigurationError(f"unknown task {self.task!r}")
        if self.X.dtype != np.float64 and all(c.kind == NUMERIC for c in self.schema):
            try:
                object.__setattr__(self, "X", self.X.astype(np.float64))
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"numeric feature table holds a non-number: {exc}") from None
        for array in (self.X, self.y, self.offset):
            if array is not None:
                array.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.labels)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.schema)

    def is_classification(self) -> bool:
        return self.task in (BINARY, MULTICLASS)

    def select_features(self, mask) -> "Dataset":
        """Dataset restricted to the masked columns, original order kept."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n_features,):
            raise ConfigurationError("feature mask length does not match table width")
        if not mask.any():
            raise ConfigurationError("feature mask keeps no columns")
        keep = np.flatnonzero(mask)
        return replace(
            self,
            X=self.X[:, keep].copy(),
            y=None if self.y is None else self.y.copy(),
            schema=tuple(self.schema[j] for j in keep),
        )

    def with_response(self, y: np.ndarray, task: str = REGRESSION) -> "Dataset":
        """Same features, replaced response (used for residual targets)."""
        y = np.asarray(y, dtype=float).copy()
        name = self.response.name if self.response else "response"
        return replace(self, y=y, response=ColumnSchema(name, NUMERIC), task=task, labels=())

    def take_rows(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return replace(
            self,
            X=self.X[indices].copy(),
            y=None if self.y is None else self.y[indices].copy(),
            offset=None if self.offset is None else self.offset[indices].copy(),
        )

    def original_labels(self, codes: np.ndarray) -> np.ndarray:
        """Map class codes back to the labels seen in the source data."""
        if not self.labels:
            return np.asarray(codes)
        lookup = np.asarray(self.labels, dtype=object)
        return lookup[np.asarray(codes, dtype=int)]


@dataclass(frozen=True)
class Split:
    """Disjoint train/valid/test row indices plus the seed that made them."""

    train_indices: np.ndarray
    valid_indices: np.ndarray
    test_indices: np.ndarray
    seed: int

    def __post_init__(self):
        if len(self.train_indices) == 0:
            raise ConfigurationError("split leaves the training set empty")
        all_idx = np.concatenate(
            [self.train_indices, self.valid_indices, self.test_indices]
        )
        if len(np.unique(all_idx)) != len(all_idx):
            raise ConfigurationError("split index lists overlap")


@dataclass(frozen=True)
class FoldPlan:
    """Per-row fold assignment for k-fold evaluation."""

    k: int
    assignments: np.ndarray
    seed: int

    def __post_init__(self):
        counts = np.bincount(self.assignments, minlength=self.k)
        if len(counts) != self.k or (counts == 0).any():
            raise ConfigurationError("every fold id must appear at least once")
        if counts.max() - counts.min() > 1:
            raise ConfigurationError("fold sizes may differ by at most one row")

    def fold_indices(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train, held-out) row indices for one fold."""
        held = np.flatnonzero(self.assignments == fold)
        train = np.flatnonzero(self.assignments != fold)
        return train, held


def _parse_number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _is_integer_valued(values: np.ndarray) -> bool:
    return bool(np.all(values == np.round(values)))


def infer_task(y: np.ndarray) -> str:
    """Classify a numeric response as regression / binary / multiclass.

    Two distinct integer-valued levels mean binary classification, 3 to
    20 mean multiclass, anything else regression. A constant response is
    a data error.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise DataError("empty response")
    levels = np.unique(y)
    if len(levels) == 1:
        raise DataError("response is constant; nothing to learn")
    if _is_integer_valued(levels):
        if len(levels) == 2:
            return BINARY
        if len(levels) <= MAX_CLASS_LEVELS:
            return MULTICLASS
    return REGRESSION


def _encode_response(raw_labels: list, task: str) -> tuple[np.ndarray, tuple]:
    """Response values -> (codes or floats, label tuple)."""
    if task == REGRESSION:
        return np.asarray(raw_labels, dtype=float), ()
    labels = tuple(sorted(set(raw_labels)))
    lookup = {lab: code for code, lab in enumerate(labels)}
    codes = np.asarray([lookup[v] for v in raw_labels], dtype=np.int64)
    return codes, labels


def _build_feature_column(cells: Sequence[str | None], name: str, forced: str | None = None):
    """Infer one column: numeric iff every non-missing cell parses as a finite number.

    An unforced column is parsed once; the first cell ``float`` rejects
    makes it categorical. A forced kind overrides inference: forced
    numeric turns unparseable or non-finite cells into missing values
    (cell by cell, once a cell fails to parse); forced categorical keeps
    numeric-looking cells as string labels.
    """
    absent = cells.count(None)
    if forced != CATEGORICAL:
        values = _parse_floats(cells)
        if forced == NUMERIC:
            if values is None:
                parsed = (None if c is None else _parse_number(c) for c in cells)
                values = np.array([math.nan if p is None else p for p in parsed], dtype=float)
            values[~np.isfinite(values)] = math.nan
            missing = int(np.isnan(values).sum())
            return values, ColumnSchema(name, NUMERIC, missing_count=missing)
        if values is not None and int(np.isfinite(values).sum()) == len(cells) - absent:
            return values, ColumnSchema(name, NUMERIC, missing_count=absent)
    categories = dict.fromkeys(cells)
    categories.pop(None, None)
    values = np.array(cells, dtype=object)
    return values, ColumnSchema(
        name, CATEGORICAL, missing_count=absent, categories=tuple(categories)
    )


def _parse_floats(cells: Sequence[str | None]) -> np.ndarray | None:
    """Float64 values of one column (NaN where a cell is missing), or None
    at the first cell ``float`` rejects."""
    try:
        return np.array([math.nan if c is None else float(c) for c in cells], dtype=float)
    except ValueError:
        return None


def read_csv_header(path) -> list[str]:
    """Just the header row of a CSV file."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                return next(csv.reader(fh))
            except StopIteration:
                raise SchemaError(f"{path}: empty file, expected a header row") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def load_csv(
    path,
    response_column: str | None,
    missing_tokens=DEFAULT_MISSING_TOKENS,
    task: str | None = None,
    column_kinds: dict | None = None,
    offset_column: str | None = None,
) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a Dataset.

    Columns whose non-missing cells all parse as finite numbers become
    numeric; the rest become categorical with categories ordered by first
    appearance. ``column_kinds`` forces kinds per feature column instead.
    ``response_column=None`` loads a feature-only table (for prediction).
    ``task`` forces the task kind instead of inferring it.
    ``offset_column`` names an exposure column: it is kept out of ``X``,
    must be positive and complete, and its log becomes ``Dataset.offset``.
    A UTF-8 byte order mark is dropped and blank lines are skipped; an
    error names a row by the line of the file it ends on.
    """
    missing_tokens = frozenset(missing_tokens)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError(f"{path}: empty file, expected a header row") from None
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not header or all(h == "" for h in header):
        raise SchemaError(f"{path}: header row is empty")
    repeated = next((h for i, h in enumerate(header) if h in header[:i]), None)
    if repeated is not None:
        raise SchemaError(f"{path}: column {repeated!r} appears more than once in the header")
    # csv.reader returns a blank line as an empty row. An empty cell of a
    # one-column file is written "" and reads as [""], so it is kept.
    if [] in rows:
        rows = [row for row in rows if row]
    width = len(header)
    if set(map(len, rows)) - {width}:
        i = next(i for i, row in enumerate(rows) if len(row) != width)
        raise SchemaError(
            f"{path}: row {_line_of_row(path, i)} has {len(rows[i])} cells, expected {width}"
        )

    if response_column is not None and response_column not in header:
        raise ConfigurationError(
            f"response column {response_column!r} not found in {path}"
        )
    if offset_column is not None and offset_column not in set(header) - {response_column}:
        raise ConfigurationError(f"offset column {offset_column!r} not in {path}")
    column_kinds = dict(column_kinds or {})
    for name, kind in column_kinds.items():
        if kind not in (NUMERIC, CATEGORICAL):
            raise ConfigurationError(f"unknown forced kind {kind!r} for column {name!r}")
        if name not in header:
            raise ConfigurationError(f"column_kinds names unknown column {name!r}")
        if name in (response_column, offset_column):
            raise ConfigurationError(
                f"column_kinds cannot force {name!r}: the task sets the response's kind, "
                "and an offset is numeric"
            )

    columns = {
        h: cells if missing_tokens.isdisjoint(cells)
        else [None if cell in missing_tokens else cell for cell in cells]
        for h, cells in zip(header, list(zip(*rows)) or [()] * width)
    }

    feature_names = [h for h in header if h != response_column and h != offset_column]
    feats = []
    schemas = []
    for name in feature_names:
        values, schema = _build_feature_column(
            columns[name], name, forced=column_kinds.get(name)
        )
        feats.append(values)
        schemas.append(schema)
    n_rows = len(rows)
    X = (
        np.stack(feats, axis=1)
        if feats
        else np.empty((n_rows, 0), dtype=object)
    )

    offset = None
    if offset_column is not None:
        exposure = _build_feature_column(columns[offset_column], offset_column, NUMERIC)[0]
        bad = np.flatnonzero(~(exposure > 0))  # a missing or non-number cell is NaN
        if len(bad):
            raise DataError(
                f"offset column {offset_column!r} in {path} must be positive and complete, "
                f"not {columns[offset_column][bad[0]] or ''!r} at row {_line_of_row(path, bad[0])}"
            )
        offset = np.log(exposure)
    if response_column is None:
        return Dataset(X=X, y=None, schema=tuple(schemas), offset=offset)

    raw = columns[response_column]
    if None in raw:
        raise DataError(
            f"response column {response_column!r} has a missing value at row "
            f"{_line_of_row(path, raw.index(None))}"
        )
    values = _parse_floats(raw)
    response_numeric = values is not None and bool(np.isfinite(values).all())

    if task is not None and task not in TASKS:
        raise ConfigurationError(f"unknown task {task!r}")
    if response_numeric:
        # A forced task skips inference (a constant response is only an
        # error when the task must be inferred from it).
        chosen = task or infer_task(values)
        if chosen == REGRESSION:
            raw_labels = values
        else:
            if not _is_integer_valued(np.unique(values)):
                raise DataError("classification requires integer-valued class labels")
            raw_labels = [int(p) for p in values.tolist()]
    else:
        if task == REGRESSION:
            raise DataError("response is non-numeric; cannot treat as regression")
        levels = len(set(raw))
        if levels < 2:
            raise DataError("response is constant; nothing to learn")
        if levels > MAX_CLASS_LEVELS:
            raise DataError(
                f"response has {levels} distinct labels, above the "
                f"{MAX_CLASS_LEVELS}-class limit"
            )
        chosen = task or (BINARY if levels == 2 else MULTICLASS)
        raw_labels = raw
    if chosen in (BINARY, MULTICLASS):
        n_levels = len(set(raw_labels))
        if chosen == BINARY and n_levels != 2:
            raise DataError(f"binary task requires 2 classes, found {n_levels}")
        if n_levels < 2:
            raise DataError("response is constant; nothing to learn")
    y, labels = _encode_response(raw_labels, chosen)
    resp_schema = ColumnSchema(
        response_column,
        NUMERIC if response_numeric else CATEGORICAL,
        categories=() if response_numeric else tuple(sorted(set(raw))),
    )
    return Dataset(
        X=X, y=y, schema=tuple(schemas), response=resp_schema, task=chosen, labels=labels,
        offset=offset,
    )


def _line_of_row(path, i: int) -> int:
    """The line that data row ``i`` (blank lines skipped) ends on. A quoted
    field may span lines, so error paths read the file again."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        return [reader.line_num for row in reader if row][i + 1]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return repr(float(value))
    return str(value)


def _format_column(values: np.ndarray) -> list[str]:
    """CSV fields of one column: ``_format_cell`` of each value, quoted as
    ``quote_text`` quotes. A column of floats (a numeric column of an
    object table too) holds no character that needs quotes, so it is not
    scanned."""
    cells = values.tolist()
    if values.dtype == np.float64 or set(map(type, cells)) <= {float}:
        return ["" if v != v else repr(v) for v in cells]
    return quote_text([_format_cell(v) for v in cells])


def quote_text(fields: list[str]) -> list[str]:
    """csv.writer's minimal quoting of a column of text fields.

    A field holding a comma, a double quote, CR or LF is wrapped in double
    quotes with its inner quotes doubled; one join clears a column that
    needs none.
    """
    if not _needs_quotes("".join(fields)):
        return fields
    return ['"' + f.replace('"', '""') + '"' if _needs_quotes(f) else f for f in fields]


def write_fields(path, header: list[str], columns: list[list[str]]) -> None:
    """Write a header and columns of CSV fields, streamed row by row.

    The bytes equal what ``csv.writer`` writes in its excel dialect: CRLF
    line ends and minimal quoting. The header is quoted here; ``columns``
    must already be quoted (``quote_text``, or fields such as float reprs
    that need no quotes) and match the header in number.
    """
    header = quote_text(list(header))
    if len(header) == 1:
        # A row's lone empty field is written "", or it would read back as a blank line.
        header, column = (['""' if f == "" else f for f in c] for c in (header, columns[0]))
        columns = [column]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        if columns:
            last = [f + "\r\n" for f in columns[-1]]
            fh.writelines(map(",".join, zip(*columns[:-1], last)))


def write_csv(dataset: Dataset, path) -> None:
    """Write a Dataset back to CSV; missing cells become empty fields."""
    columns = [_format_column(dataset.X[:, j]) for j in range(dataset.n_features)]
    header = list(dataset.feature_names)
    if dataset.y is not None and dataset.response is not None:
        header.append(dataset.response.name)
        y_out = (
            dataset.original_labels(dataset.y)
            if dataset.is_classification()
            else dataset.y
        )
        columns.append(_format_column(y_out))
    write_fields(path, header, columns)


def split_dataset(
    dataset: Dataset, test_fraction: float, valid_fraction: float, seed: int
) -> Split:
    """Seeded shuffle split into train / valid / test index lists.

    ``|test| = round(n_rows * test_fraction)``; valid likewise; train takes
    every remaining row, so the three lists partition ``0..n_rows-1``.
    """
    for name, frac in (("test_fraction", test_fraction), ("valid_fraction", valid_fraction)):
        if not 0.0 <= frac < 1.0:
            raise ConfigurationError(f"{name} must be in [0, 1), got {frac}")
    if test_fraction + valid_fraction >= 1.0:
        raise ConfigurationError("test_fraction + valid_fraction must be below 1")
    n = dataset.n_rows
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_test = round(n * test_fraction)
    n_valid = round(n * valid_fraction)
    if n - n_test - n_valid < 1:
        raise ConfigurationError("split leaves no training rows")
    test = np.sort(order[:n_test])
    valid = np.sort(order[n_test : n_test + n_valid])
    train = np.sort(order[n_test + n_valid :])
    return Split(train_indices=train, valid_indices=valid, test_indices=test, seed=seed)


def make_folds(n_rows: int, k: int, seed: int) -> FoldPlan:
    """Balanced seeded k-fold assignment (fold sizes differ by at most 1)."""
    if k < 2:
        raise ConfigurationError(f"fold count must be at least 2, got {k}")
    if k > n_rows:
        raise ConfigurationError(f"cannot make {k} folds from {n_rows} rows")
    rng = np.random.default_rng(seed)
    ids = np.arange(n_rows) % k
    assignments = ids[rng.permutation(n_rows)]
    return FoldPlan(k=k, assignments=assignments, seed=seed)


def log1p_transform(
    dataset: Dataset, columns: list[str] | tuple[str, ...] = (), include_response: bool = False
) -> Dataset:
    """Replace targeted cells x by ln(1 + x); requires every value > -1."""
    names = set(columns)
    unknown = names - set(dataset.feature_names)
    if unknown:
        raise ConfigurationError(f"unknown columns: {sorted(unknown)}")
    by_name = {c.name: c for c in dataset.schema}
    for name in names:
        if by_name[name].kind != NUMERIC:
            raise ConfigurationError(f"column {name!r} is categorical, cannot log1p")
    X = dataset.X.copy()
    for j, schema in enumerate(dataset.schema):
        if schema.name not in names:
            continue
        col = X[:, j].astype(float)
        below = col <= -1.0
        if below.any():
            i = int(np.argmax(below))
            raise DomainError(
                f"log1p undefined for value {col[i].item()} at row {i}, column {schema.name!r}"
            )
        # math.log1p, not np.log1p: numpy's vectorised log1p can differ in
        # the last bit on some CPUs.
        X[:, j] = [math.log1p(v) for v in col.tolist()]
    y = dataset.y
    if include_response:
        if dataset.task != REGRESSION:
            raise ConfigurationError("response log1p only applies to regression tasks")
        if y is None:
            raise ConfigurationError("dataset has no response to transform")
        if (y <= -1.0).any():
            bad = int(np.argmax(y <= -1.0))
            raise DomainError(
                f"log1p undefined for response value {y[bad]} at row {bad}"
            )
        y = np.log1p(y)
    return replace(dataset, X=X, y=None if y is None else np.asarray(y, dtype=float).copy())
