import csv
import math

import numpy as np
import pytest

from tabcash.errors import ConfigurationError, DataError, DomainError, SchemaError
from tabcash.synthdata import GeneratorSpec, generate
from tabcash.tabular import (
    BINARY,
    CATEGORICAL,
    DEFAULT_MISSING_TOKENS,
    MULTICLASS,
    NUMERIC,
    REGRESSION,
    ColumnSchema,
    Dataset,
    infer_task,
    load_csv,
    log1p_transform,
    make_folds,
    read_csv_header,
    split_dataset,
    write_csv,
)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_numeric_column_with_missing_token(self, tmp_path):
        path = _write(tmp_path, "age,y\n1,0\n2,1\nNA,0\n")
        ds = load_csv(path, "y")
        assert ds.schema[0].kind == "numeric"
        assert ds.schema[0].missing_count == 1
        assert math.isnan(ds.X[2, 0])

    def test_non_numeric_becomes_categorical_first_appearance(self, tmp_path):
        path = _write(tmp_path, "c,y\na,0\nb,1\na,0\n")
        ds = load_csv(path, "c" if False else "y")
        assert ds.schema[0].kind == "categorical"
        assert ds.schema[0].categories == ("a", "b")

    def test_empty_file_is_schema_error(self, tmp_path):
        path = _write(tmp_path, "")
        with pytest.raises(SchemaError):
            load_csv(path, "y")

    def test_missing_response_column(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(ConfigurationError):
            load_csv(path, "y")

    def test_missing_response_value_is_data_error(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,2\n2,\n")
        with pytest.raises(DataError):
            load_csv(path, "y")

    def test_ragged_row_is_schema_error(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,2\n3\n")
        with pytest.raises(SchemaError):
            load_csv(path, "y")

    @pytest.mark.parametrize("response", ["y", None])
    def test_repeated_header_name_is_schema_error_naming_it(self, tmp_path, response):
        path = _write(tmp_path, "a,b,a,y\n1,2,3,0\n4,5,6,1\n")
        with pytest.raises(SchemaError, match="column 'a' appears more than once"):
            load_csv(path, response)

    def test_classification_labels_reindexed(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,3\n2,7\n3,3\n4,7\n")
        ds = load_csv(path, "y")
        assert ds.task == BINARY
        assert ds.labels == (3, 7)
        assert ds.y.tolist() == [0, 1, 0, 1]
        assert ds.original_labels(ds.y).tolist() == [3, 7, 3, 7]

    def test_string_response_classification(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,no\n2,yes\n3,no\n")
        ds = load_csv(path, "y")
        assert ds.task == BINARY
        assert ds.labels == ("no", "yes")

    def test_forced_regression_on_integer_levels(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,0\n2,1\n3,2\n4,0\n")
        ds = load_csv(path, "y", task=REGRESSION)
        assert ds.task == REGRESSION
        assert ds.y.dtype == float

    def test_feature_only_load(self, tmp_path):
        path = _write(tmp_path, "a,b\n1,2\n3,4\n")
        ds = load_csv(path, None)
        assert ds.y is None and ds.task is None
        assert ds.n_features == 2

    def test_forced_categorical_keeps_numeric_codes_as_labels(self, tmp_path):
        path = _write(tmp_path, "region,y\n10,0.5\n20,1.5\n10,2.0\n")
        ds = load_csv(path, "y", column_kinds={"region": "categorical"})
        assert ds.schema[0].kind == "categorical"
        assert ds.schema[0].categories == ("10", "20")
        assert ds.X[0, 0] == "10"

    def test_forced_numeric_turns_stray_tokens_missing(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,0.5\n?,1.5\n3,2.0\n")
        ds = load_csv(path, "y", column_kinds={"a": "numeric"})
        assert ds.schema[0].kind == "numeric"
        assert ds.schema[0].missing_count == 1
        assert math.isnan(ds.X[1, 0])

    def test_forced_kind_on_unknown_column(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,0.5\n2,1.5\n")
        with pytest.raises(ConfigurationError):
            load_csv(path, "y", column_kinds={"zz": "numeric"})

    def test_forced_kind_on_response_rejected(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,0.5\n2,1.5\n")
        with pytest.raises(ConfigurationError):
            load_csv(path, "y", column_kinds={"y": "categorical"})

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a BOM.
        path = tmp_path / "bom.csv"
        path.write_text("x0,y\n1.5,0\n2.5,1\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_csv_header(path) == ["x0", "y"]
        ds = load_csv(path, "x0")
        assert ds.feature_names == ("y",) and ds.y.tolist() == [1.5, 2.5]

    def test_blank_lines_are_skipped(self, tmp_path):
        ds = load_csv(_write(tmp_path, "a,y\n1,0\n\n2,1\n3,0\n\n"), "y")
        assert ds.X[:, 0].tolist() == [1.0, 2.0, 3.0] and ds.y.tolist() == [0, 1, 0]
        # A written empty cell of a one-column file is "" and stays a row.
        one = load_csv(_write(tmp_path, 'a\r\n1\r\n""\r\n\r\n2\r\n', name="one.csv"), None)
        assert one.n_rows == 3 and one.schema[0].missing_count == 1
        assert math.isnan(one.X[1, 0])

    @pytest.mark.parametrize("text, response, message", [
        ("a,y\n1,0\n\n2\n", "y", "row 4 has 1 cells, expected 2"),
        ("a,y\n\n\n1,0\n2,\n", "y", "missing value at row 5"),
        ('a,y\n"two\nlines",1\n1\n', "y", "row 4 has 1 cells, expected 2"),
        ('a,y\n"two\r\nlines",1\n\n3,\n', "y", "missing value at row 5"),
    ], ids=["ragged", "missing-response", "ragged-after-quoted-newline",
            "missing-response-after-quoted-newline"])
    def test_errors_name_the_file_line_past_blank_lines(self, tmp_path, text, response, message):
        with pytest.raises((SchemaError, DataError), match=message):
            load_csv(_write(tmp_path, text), response)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_number_makes_column_categorical(self, tmp_path, token):
        path = _write(tmp_path, f"a,y\n1,0\n{token},1\n2,0\n")
        assert load_csv(path, "y").schema[0].kind == CATEGORICAL
        forced = load_csv(path, "y", column_kinds={"a": NUMERIC})
        assert forced.schema[0].missing_count == 1
        assert forced.X[:, 0].tolist()[::2] == [1.0, 2.0] and math.isnan(forced.X[1, 0])


class TestOffsetColumn:
    TEXT = "a,exposure,y\n1.5,0.5,2\n2.5,2.0,0\n0.5,1.25,1\n"

    def test_offset_is_the_log_exposure_and_leaves_x(self, tmp_path):
        ds = load_csv(_write(tmp_path, self.TEXT), "y", offset_column="exposure")
        assert ds.feature_names == ("a",) and ds.X[:, 0].tolist() == [1.5, 2.5, 0.5]
        assert ds.offset.tolist() == np.log([0.5, 2.0, 1.25]).tolist()
        assert not ds.offset.flags.writeable
        assert load_csv(_write(tmp_path, self.TEXT), None, offset_column="exposure").offset.shape == (3,)
        assert load_csv(_write(tmp_path, self.TEXT), "y").offset is None

    def test_row_and_column_views_carry_the_offset(self, tmp_path):
        text = "a,b,exposure,y\n1,7,0.5,2\n2,8,2.0,0\n3,9,1.25,1\n"
        ds = load_csv(_write(tmp_path, text), "y", offset_column="exposure")
        assert ds.take_rows([2, 0]).offset.tolist() == [ds.offset[2], ds.offset[0]]
        assert ds.select_features([False, True]).offset is ds.offset
        assert ds.with_response(np.zeros(3)).offset is ds.offset
        with pytest.raises(SchemaError, match="offset length"):
            Dataset(X=ds.X, y=ds.y, schema=ds.schema, offset=ds.offset[:2])

    @pytest.mark.parametrize("text, shown", [
        ("a,exposure,y\n1,0.5,2\n2,0,1\n", "'0' at row 3"),
        ("a,exposure,y\n1,0.5,2\n2,,1\n", "'' at row 3"),
        ("a,exposure,y\n1,-1,2\n2,1,1\n", "'-1' at row 2"),
        ('a,exposure,y\n"x\ny",0.5,2\n2,inf,1\n', "'inf' at row 4"),
        ("a,exposure,y\n1,0.5,2\n\n2,abc,1\n", "'abc' at row 4"),
    ], ids=["zero", "blank", "negative", "infinite-after-quoted-newline", "text-after-blank-line"])
    def test_exposure_must_be_positive_and_complete(self, tmp_path, text, shown):
        with pytest.raises(DataError, match="must be positive and complete") as err:
            load_csv(_write(tmp_path, text), "y", offset_column="exposure")
        assert "data.csv" in str(err.value) and shown in str(err.value)

    @pytest.mark.parametrize("kwargs", [
        {"offset_column": "absent"},
        {"offset_column": "y"},
        {"offset_column": "exposure", "column_kinds": {"exposure": NUMERIC}},
    ], ids=["absent", "response", "forced-kind"])
    def test_offset_column_misconfigured(self, tmp_path, kwargs):
        with pytest.raises(ConfigurationError):
            load_csv(_write(tmp_path, self.TEXT), "y", **kwargs)


def _reference_load(path, response, missing_tokens, kinds):
    """The per-cell loader: each cell parsed on its own, a column numeric iff
    every non-missing cell is a finite number, unless its kind is forced."""
    def number(cell):
        try:
            value = float(cell)
        except ValueError:
            return None
        return value if math.isfinite(value) else None

    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    columns = {h: [None if c in missing_tokens else c for c in cells]
               for h, cells in zip(header, zip(*rows))}
    features, schema = [], []
    for name in header:
        cells, forced = columns[name], kinds.get(name)
        absent = cells.count(None)
        parsed = [None if c is None else number(c) for c in cells]
        missing = parsed.count(None)
        if name != response and forced != CATEGORICAL and (forced == NUMERIC or missing == absent):
            features.append([math.nan if p is None else p for p in parsed])
            schema.append(ColumnSchema(name, NUMERIC, missing_count=missing))
        elif name != response:
            features.append(cells)
            schema.append(ColumnSchema(name, CATEGORICAL, absent, tuple(dict.fromkeys(
                c for c in cells if c is not None))))
    parsed = [number(c) for c in columns[response]]
    y = parsed if None not in parsed else columns[response]
    return np.array(features, dtype=object).T, tuple(schema), y


class TestLoadMatchesCellByCell:
    """``load_csv`` parses an unforced column once; the per-cell loader is the reference."""

    @staticmethod
    def _table(tmp_path, n=300):
        rng = np.random.default_rng(3)
        numbers = [repr(float(v)) for v in rng.normal(size=n)]
        late = n - 2  # the first cell that is not a finite number comes late
        cols = {
            "clean": numbers,
            "late_text": numbers[:late] + ["x", "1"],
            "late_inf": numbers[:late] + ["inf", "2"],
            "late_nan": numbers[:late] + ["nan", "3"],
            "late_NaN": numbers[:late] + ["NaN", "-0"],
            "tokens": [["", "NA", "?", "null", "4"][i % 5] if i % 3 == 0 else numbers[i]
                       for i in range(n)],
            "codes": [str(i % 4) for i in range(n)],
            "text": [["red", "", "1e999", "blue"][i % 4] for i in range(n)],
            "y": [repr(float(v)) for v in rng.poisson(2.0, size=n)],
        }
        lines = [",".join(cols)] + [",".join(r) for r in zip(*cols.values())]
        return _write(tmp_path, "\n".join(lines) + "\n"), list(cols)[:-1]

    @pytest.mark.parametrize("missing_tokens", [DEFAULT_MISSING_TOKENS, {"?", "NA"}])
    @pytest.mark.parametrize("forced", [None, NUMERIC, CATEGORICAL, "mixed"])
    def test_matches_cell_by_cell(self, tmp_path, missing_tokens, forced):
        path, names = self._table(tmp_path)
        if forced == "mixed":
            kinds = {n: (NUMERIC, CATEGORICAL)[i % 2] for i, n in enumerate(names[::2])}
        else:
            kinds = {n: forced for n in names} if forced else {}
        ds = load_csv(path, "y", missing_tokens=missing_tokens, task=REGRESSION,
                      column_kinds=kinds)
        X, schema, y = _reference_load(path, "y", frozenset(missing_tokens), kinds)
        assert ds.schema == schema
        # repr tells -0.0 from 0.0, a NaN from None, and a float from a string.
        assert [repr(v) for v in ds.X.ravel().tolist()] == [repr(v) for v in X.ravel().tolist()]
        assert ds.y.tolist() == y

    @pytest.mark.parametrize("cell", ["x", "inf", "nan"])
    def test_late_non_number_makes_a_text_response(self, tmp_path, cell):
        path = _write(tmp_path, "a,y\n" + "1,0\n2,1\n" * 20 + f"3,{cell}\n")
        ds = load_csv(path, "y", task=MULTICLASS)
        assert ds.response.kind == CATEGORICAL and ds.labels == tuple(sorted({"0", "1", cell}))
        assert ds.original_labels(ds.y).tolist() == _reference_load(
            path, "y", DEFAULT_MISSING_TOKENS, {})[2]


class TestFeatureDtype:
    """A feature table is float64 exactly when every column is numeric."""

    def test_load_csv(self, tmp_path):
        path = _write(tmp_path, "a,b,y\n1,,0\n2.5,-0,1\n")
        numeric = load_csv(path, "y")
        assert numeric.X.dtype == np.float64 and not numeric.X.flags.writeable
        assert math.isnan(numeric.X[0, 1]) and math.copysign(1.0, numeric.X[1, 1]) == -1.0
        assert load_csv(path, "y", column_kinds={"b": CATEGORICAL}).X.dtype == object
        mixed = load_csv(_write(tmp_path, "a,b,y\n1,u,0\n,v,1\n", name="m.csv"), "y")
        assert mixed.X.dtype == object
        assert isinstance(mixed.X[0, 0], float) and mixed.X[1, 1] == "v"

    @pytest.mark.parametrize("n_categorical", [0, 2])
    def test_generate_take_rows_select_features(self, n_categorical):
        ds = generate(GeneratorSpec("poisson", n_rows=40, n_features=3, seed=1,
                                    n_categorical=n_categorical, missing_fraction=0.2))
        dtype = object if n_categorical else np.float64
        assert ds.X.dtype == dtype and ds.take_rows([3, 1]).X.dtype == dtype
        numeric = [c.kind == NUMERIC for c in ds.schema]
        assert ds.select_features(numeric).X.dtype == np.float64
        assert ds.select_features(np.ones(ds.n_features, dtype=bool)).X.dtype == dtype
        assert [c.missing_count for c in ds.schema] == [
            sum(v is None or (isinstance(v, float) and math.isnan(v)) for v in ds.X[:, j].tolist())
            for j in range(ds.n_features)
        ]

    def test_hand_built_table(self):
        schema = (ColumnSchema("a", NUMERIC), ColumnSchema("b", NUMERIC))
        ds = Dataset(np.array([[1.5, np.nan], [2, -0.0]], dtype=object), None, schema)
        assert ds.X.dtype == np.float64 and not ds.X.flags.writeable
        assert Dataset(np.array([[1, 2]]), None, schema).X.dtype == np.float64
        assert math.isnan(Dataset(np.array([[1.0, None]], dtype=object), None, schema).X[0, 1])
        with pytest.raises(SchemaError):
            Dataset(np.array([[1.0, "abc"]], dtype=object), None, schema)
        cat = (ColumnSchema("a", NUMERIC), ColumnSchema("c", CATEGORICAL, categories=("u",)))
        assert Dataset(np.array([[1.0, "u"]], dtype=object), None, cat).X.dtype == object


class TestInferTask:
    def test_binary(self):
        assert infer_task(np.array([0, 1, 0, 1])) == BINARY

    def test_regression_for_non_integer(self):
        assert infer_task(np.array([0.5, 1.7, 2.2])) == REGRESSION

    def test_constant_is_data_error(self):
        with pytest.raises(DataError):
            infer_task(np.array([3, 3, 3]))

    def test_multiclass_window(self):
        assert infer_task(np.arange(20) % 4) == MULTICLASS

    def test_many_integer_levels_is_regression(self):
        assert infer_task(np.arange(25, dtype=float)) == REGRESSION


class TestSplit:
    def test_ninety_ten(self, tmp_path):
        path = _write(tmp_path, "a,y\n" + "".join(f"{i},{i * 0.5}\n" for i in range(10)))
        ds = load_csv(path, "y")
        split = split_dataset(ds, test_fraction=0.1, valid_fraction=0.0, seed=7)
        assert len(split.test_indices) == 1
        assert len(split.train_indices) == 9

    def test_deterministic(self, tmp_path):
        path = _write(tmp_path, "a,y\n" + "".join(f"{i},{i * 0.5}\n" for i in range(30)))
        ds = load_csv(path, "y")
        a = split_dataset(ds, 0.2, 0.1, seed=3)
        b = split_dataset(ds, 0.2, 0.1, seed=3)
        assert a.train_indices.tolist() == b.train_indices.tolist()
        assert a.valid_indices.tolist() == b.valid_indices.tolist()
        assert a.test_indices.tolist() == b.test_indices.tolist()

    def test_partition_property(self, tmp_path):
        path = _write(tmp_path, "a,y\n" + "".join(f"{i},{i * 0.5}\n" for i in range(53)))
        ds = load_csv(path, "y")
        for seed in range(5):
            split = split_dataset(ds, 0.25, 0.15, seed=seed)
            merged = np.concatenate(
                [split.train_indices, split.valid_indices, split.test_indices]
            )
            assert sorted(merged.tolist()) == list(range(53))

    def test_bad_fractions(self, tmp_path):
        path = _write(tmp_path, "a,y\n" + "".join(f"{i},{i * 0.5}\n" for i in range(10)))
        ds = load_csv(path, "y")
        with pytest.raises(ConfigurationError):
            split_dataset(ds, 0.95, 0.1, seed=0)


class TestFolds:
    @pytest.mark.parametrize("n,k", [(10, 2), (11, 3), (57, 4), (8, 8)])
    def test_balanced(self, n, k):
        plan = make_folds(n, k, seed=1)
        counts = np.bincount(plan.assignments, minlength=k)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == n

    def test_k_too_small(self):
        with pytest.raises(ConfigurationError):
            make_folds(10, 1, seed=0)

    def test_fold_indices_partition(self):
        plan = make_folds(17, 4, seed=2)
        for f in range(4):
            train, held = plan.fold_indices(f)
            assert sorted(np.concatenate([train, held]).tolist()) == list(range(17))


class TestLog1p:
    def test_zero_maps_to_zero(self, tmp_path):
        path = _write(tmp_path, "a,y\n0,1.5\n1,2.5\n", name="l.csv")
        ds = load_csv(path, "y")
        out = log1p_transform(ds, ["a"])
        assert out.X[0, 0] == 0.0

    def test_e_minus_one_maps_to_one(self, tmp_path):
        path = _write(tmp_path, f"a,y\n{math.e - 1!r},1.5\n1,2.5\n")
        ds = load_csv(path, "y")
        out = log1p_transform(ds, ["a"])
        assert out.X[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_below_minus_one_is_domain_error(self, tmp_path):
        path = _write(tmp_path, "a,y\n-2,1.5\n1,2.5\n")
        ds = load_csv(path, "y")
        with pytest.raises(DomainError) as err:
            log1p_transform(ds, ["a"])
        assert "row 0" in str(err.value) and "'a'" in str(err.value)

    def test_response_transform(self, tmp_path):
        path = _write(tmp_path, "a,y\n1,0\n2,1.5\n")
        ds = load_csv(path, "y", task=REGRESSION)
        out = log1p_transform(ds, [], include_response=True)
        assert out.y[0] == 0.0
        assert out.y[1] == pytest.approx(math.log1p(1.5))

    def test_categorical_column_rejected(self, tmp_path):
        path = _write(tmp_path, "a,y\nfoo,1\nbar,2.5\n")
        ds = load_csv(path, "y")
        with pytest.raises(ConfigurationError):
            log1p_transform(ds, ["a"])

    @pytest.mark.parametrize("mixed", [False, True])
    def test_bit_exact_against_math_log1p(self, mixed):
        rng = np.random.default_rng(2)
        values = np.concatenate([
            rng.uniform(-0.999, 4.0, 3000), np.exp(rng.uniform(-40, 40, 3000)),
            -1.0 + np.exp(rng.uniform(-35, 0, 3000)),
            [0.0, -0.0, 1e-320, 5e-324, 1e300, 3.0, np.nan],
        ])
        schema = [ColumnSchema("a", NUMERIC), ColumnSchema("b", NUMERIC)]
        X = np.stack([values, values[::-1]], axis=1).astype(object)
        if mixed:
            schema.append(ColumnSchema("c", CATEGORICAL, categories=("u",)))
            X = np.concatenate([X, np.full((len(values), 1), "u", dtype=object)], axis=1)
        out = log1p_transform(Dataset(X, None, tuple(schema)), ["a"])
        expected = [v if math.isnan(v) else math.log1p(v) for v in values.tolist()]
        assert np.array(out.X[:, 0], dtype=float).tobytes() == np.array(expected).tobytes()
        assert np.array(out.X[:, 1], dtype=float).tobytes() == values[::-1].tobytes()

    def test_domain_error_names_first_cell_in_column_order(self):
        schema = (ColumnSchema("a", NUMERIC), ColumnSchema("b", NUMERIC))
        X = np.array([[0.0, -3.0], [1.0, 0.0], [np.nan, 1.0], [-1.0, 2.0], [-7.5, 0.0]])
        ds = Dataset(X, None, schema)
        with pytest.raises(DomainError) as err:
            log1p_transform(ds, ["b", "a"])
        assert str(err.value) == "log1p undefined for value -1.0 at row 3, column 'a'"
        with pytest.raises(DomainError) as err:
            log1p_transform(ds, ["b"])
        assert str(err.value) == "log1p undefined for value -3.0 at row 0, column 'b'"


def _reference_write_csv(dataset, path):
    """Reference writer: one row at a time, each cell formatted on its own."""
    def fmt(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return "" if math.isnan(value) else repr(float(value))
        return str(value)

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(dataset.feature_names)
        y_out = None
        if dataset.y is not None and dataset.response is not None:
            header.append(dataset.response.name)
            y_out = (dataset.original_labels(dataset.y) if dataset.is_classification()
                     else dataset.y)
        writer.writerow(header)
        for i in range(dataset.n_rows):
            row = [fmt(v) for v in dataset.X[i]]
            if y_out is not None:
                row.append(fmt(y_out[i]))
            writer.writerow(row)


class TestRoundTrip:
    def test_write_csv_bytes_match_cell_by_cell_writer(self, tmp_path):
        odd = [-0.0, 1e-320, 1e300, 3.0, -12.0, 2.0**60, np.nan, 0.1, -1.5e-7]
        num = (ColumnSchema("a", NUMERIC), ColumnSchema("b", NUMERIC))
        floats = np.array([odd, odd[::-1]], dtype=float).T
        cat = ColumnSchema("c", CATEGORICAL, categories=("x,y", 'q"'))
        mixed = np.empty((len(odd), 3), dtype=object)
        mixed[:, :2] = floats
        mixed[:, 2] = ["x,y", 'q"', None] * 3
        codes = np.arange(len(odd)) % 2
        tables = [
            Dataset(floats, np.array(odd), num, ColumnSchema("y", NUMERIC), REGRESSION),
            Dataset(floats, None, num),
            Dataset(mixed, codes, num + (cat,), ColumnSchema("y", CATEGORICAL,
                    categories=("no", "yes")), BINARY, ("no", "yes")),
            Dataset(mixed, codes, num + (cat,), ColumnSchema("y", NUMERIC), BINARY, (0, 1)),
            generate(GeneratorSpec("gaussian", n_rows=30, n_features=2, n_categorical=1,
                                   missing_fraction=0.3, seed=5)),
        ]
        # Text that csv quotes, or that looks as if it might need quotes.
        nasty = ["a,b", 'say "hi"', "cr\rx", "lf\nx", "crlf\r\n", " lead", '"', "", None,
                 "caf\u00e9 \u2615 \u65e5\u672c"]
        adv = np.empty((len(nasty), 2), dtype=object)
        adv[:, 0] = odd + [2.5]
        adv[:, 1] = nasty
        adv_schema = (ColumnSchema(" lead,", NUMERIC), ColumnSchema(
            'q"\r\n', CATEGORICAL, categories=tuple(v for v in nasty if v is not None)))
        labels = ("a,b", ' say "hi"\r')
        one = (ColumnSchema("a", NUMERIC),)
        tables += [
            Dataset(adv, np.arange(len(nasty)) % 2, adv_schema,
                    ColumnSchema("\u00fc\n", CATEGORICAL, categories=labels), BINARY, labels),
            Dataset(adv, None, adv_schema),
            Dataset(np.array([[1.0], [np.nan], [2.0]]), None, one),
            Dataset(np.array([["u"], [None], [""]], dtype=object), None,
                    (ColumnSchema("", CATEGORICAL, categories=("u",)),)),
            Dataset(np.empty((3, 0)), np.array([1.0, np.nan, -0.0]), (),
                    ColumnSchema("y", NUMERIC), REGRESSION),
            Dataset(np.empty((0, 2)), np.empty(0), num, ColumnSchema("y", NUMERIC), REGRESSION),
            Dataset(np.empty((0, 1)), None, (ColumnSchema("", NUMERIC),)),
            Dataset(np.empty((0, 0)), None, ()),
        ]
        for k, ds in enumerate(tables):
            write_csv(ds, tmp_path / f"new{k}.csv")
            _reference_write_csv(ds, tmp_path / f"old{k}.csv")
            assert (tmp_path / f"new{k}.csv").read_bytes() == (tmp_path / f"old{k}.csv").read_bytes()

    def test_csv_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = ["num,cat,y"]
        for i in range(40):
            num = "" if i % 7 == 0 else repr(float(rng.normal()))
            cat = "" if i % 11 == 0 else ["red", "green", "blue"][i % 3]
            rows.append(f"{num},{cat},{rng.integers(0, 2)}")
        path = _write(tmp_path, "\n".join(rows) + "\n")
        ds = load_csv(path, "y")
        out_path = tmp_path / "out.csv"
        write_csv(ds, out_path)
        again = load_csv(out_path, "y")
        assert again.schema == ds.schema
        assert again.task == ds.task
        assert again.y.tolist() == ds.y.tolist()
        for j in range(ds.n_features):
            for i in range(ds.n_rows):
                a, b = ds.X[i, j], again.X[i, j]
                if isinstance(a, float) and math.isnan(a):
                    assert isinstance(b, float) and math.isnan(b)
                else:
                    assert a == b
