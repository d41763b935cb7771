import math

import numpy as np
import pytest

from tabcash.errors import ConfigurationError, DataError, DomainError, SchemaError
from tabcash.tabular import (
    BINARY,
    MULTICLASS,
    REGRESSION,
    infer_task,
    load_csv,
    log1p_transform,
    make_folds,
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


class TestRoundTrip:
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
