import numpy as np
import pytest

from tabcash.engine import fit_pipeline_on_rows
from tabcash.errors import ConfigurationError, ImputationError
from tabcash.preprocess import IMPUTE_METHODS, Encoder, Imputer, Scaler, Selector
from tabcash.space import PipelineSpec, StageChoice
from tabcash.tabular import REGRESSION, ColumnSchema, Dataset, load_csv


def obj(rows):
    return np.array(rows, dtype=object)


CAT = ColumnSchema("c", "categorical", categories=("a", "b"))
NUM = ColumnSchema("x", "numeric")


class TestEncoder:
    def test_ordinal_first_appearance(self):
        X = obj([["a"], ["b"], ["a"]])
        out = Encoder("ordinal").fit_transform(X, [CAT])
        assert out[:, 0].tolist() == [0.0, 1.0, 0.0]

    def test_onehot_columns(self):
        X = obj([["a"], ["b"]])
        enc = Encoder("onehot").fit(X, [CAT])
        out = enc.transform(X)
        assert out.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert enc.out_names_ == ["c=a", "c=b"]

    def test_unseen_gets_reserved_code(self):
        enc = Encoder("ordinal").fit(obj([["a"], ["b"]]), [CAT])
        assert enc.transform(obj([["zzz"]]))[0, 0] == 2.0

    def test_unseen_onehot_zero_block(self):
        enc = Encoder("onehot").fit(obj([["a"], ["b"]]), [CAT])
        assert enc.transform(obj([["zzz"]])).tolist() == [[0.0, 0.0]]

    def test_missing_ordinal_stays_nan(self):
        enc = Encoder("ordinal").fit(obj([["a"], [None]]), [CAT])
        out = enc.transform(obj([[None]]))
        assert np.isnan(out[0, 0])

    def test_numeric_passthrough(self):
        X = obj([[1.5, "a"], [np.nan, "b"]])
        enc = Encoder("ordinal").fit(X, [NUM, CAT])
        out = enc.transform(X)
        assert out[0, 0] == 1.5 and np.isnan(out[1, 0])

    def test_onehot_row_sums(self):
        rng = np.random.default_rng(0)
        cells = rng.choice(["a", "b", "c"], size=30).astype(object)
        schema = [ColumnSchema("c", "categorical", categories=("a", "b", "c"))]
        out = Encoder("onehot").fit_transform(cells.reshape(-1, 1), schema)
        assert out.shape[1] == 3
        assert set(out.sum(axis=1).tolist()) == {1.0}

    def test_state_round_trip(self):
        X = obj([["a", 1.0], ["b", 2.0]])
        enc = Encoder("onehot").fit(X, [CAT, NUM])
        clone = Encoder.from_state(enc.to_state())
        assert np.array_equal(clone.transform(X), enc.transform(X))

    @pytest.mark.parametrize("method", ["ordinal", "onehot"])
    def test_matches_cell_by_cell_reference(self, method):
        # Interleaved columns, unseen and missing categories, a column with
        # an empty vocabulary, and batches of 0, 1 and many rows.
        rng = np.random.default_rng(3)
        n = 41
        cells = np.empty((n, 5), dtype=object)
        cells[:, 0] = rng.choice(["p", "q", "r", None], size=n)
        cells[:, 1] = rng.normal(size=n)
        cells[:, 2] = None
        cells[:, 3] = rng.normal(size=n)
        cells[:, 4] = rng.choice(["s", "t"], size=n)
        cells[[2, 9], 1] = np.nan
        schema = [ColumnSchema("c0", "categorical", categories=("p",)), NUM,
                  ColumnSchema("c2", "categorical", categories=("z",)),
                  ColumnSchema("x3", "numeric"), ColumnSchema("c4", "categorical", categories=("s",))]
        enc = Encoder(method).fit(cells[:30], schema)
        served = Encoder.from_state(enc.to_state())
        cells[35, 0], cells[36, 4], cells[37, 2] = "unseen", "u", "w"
        for X in (cells, cells[36:37], cells[:0]):
            expected = reference_transform(enc.columns_, method, X)
            for encoder in (enc, served):
                got = encoder.transform(X)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


def reference_transform(columns, method, X):
    """Reference encoder: one block per column, cell by cell, then hstack."""
    n = X.shape[0]
    blocks = []
    for j, info in enumerate(columns):
        if info["kind"] == "numeric":
            blocks.append(X[:, j].astype(float).reshape(n, 1))
            continue
        mapping = info["mapping"]
        if method == "ordinal":
            out = np.empty((n, 1), dtype=float)
            for i, cell in enumerate(X[:, j]):
                out[i, 0] = np.nan if cell is None else mapping.get(cell, len(mapping))
        else:
            out = np.zeros((n, max(len(mapping), 1)), dtype=float)
            for i, cell in enumerate(X[:, j]):
                if cell is not None and cell in mapping:
                    out[i, mapping[cell]] = 1.0
        blocks.append(out)
    return np.hstack(blocks) if blocks else np.empty((n, 0), dtype=float)


def _spec(encode, impute, select="none", model="ridge", select_params=None):
    methods = {"encode": encode, "impute": impute, "balance": "none",
               "scale": "standardize", "select": select, "model": model}
    stages = {s: StageChoice(m, {}) for s, m in methods.items()}
    stages["select"] = StageChoice(select, dict(select_params or {}))
    return PipelineSpec(stages, seed=0)


class TestInPlace:
    def test_copy_false_reuses_the_input(self):
        X = np.array([[1.0, np.nan], [3.0, 4.0], [5.0, 8.0]])
        stages = (Imputer("mean").fit(X), Imputer("knn", k=1).fit(X),
                  Scaler("minmax").fit(np.array([[0.0, 1.0], [2.0, 5.0]])))
        for stage in stages:
            X_in = X.copy()
            fresh = stage.transform(X_in)
            assert np.array_equal(X_in, X, equal_nan=True)
            assert stage.transform(X_in, copy=False) is X_in
            assert X_in.tobytes() == fresh.tobytes()
        keep_all = Selector("none").fit(X[1:])
        assert keep_all.transform(X, copy=False) is X
        assert keep_all.transform(X) is not X
        drop = Selector("topk_corr", k=1).fit(X[1:], [0.0, 1.0])
        assert drop.transform(X, copy=False).shape == (3, 1)

    @pytest.mark.parametrize("impute", IMPUTE_METHODS)
    @pytest.mark.parametrize("select", [("none", {}), ("topk_corr", {"k": 2})])
    @pytest.mark.parametrize("model", ["ridge", "poisson_glm", "knn"])
    def test_pipeline_chain_matches_copying_stages(self, impute, select, model):
        rng = np.random.default_rng(8)
        n = 50
        cells = np.empty((n, 4), dtype=object)
        cells[:, :3] = rng.normal(size=(n, 3))
        cells[:, 3] = rng.choice(["u", "v", None], size=n)
        cells[rng.integers(0, n, 9), rng.integers(0, 3, 9)] = np.nan
        schema = (NUM, ColumnSchema("x1", "numeric"), ColumnSchema("x2", "numeric"),
                  ColumnSchema("c", "categorical", categories=("u", "v")))
        y = rng.poisson(2.0, n).astype(float)
        ds = Dataset(cells, y, schema, ColumnSchema("y", "numeric"), REGRESSION)
        pipe = fit_pipeline_on_rows(_spec("onehot", impute, select[0], model, select[1]),
                                    ds, np.arange(35))
        for X in (ds.X, ds.X[40:41]):
            before = X.copy()
            copied = pipe.selector.transform(pipe.scaler.transform(
                pipe.imputer.transform(pipe.encoder.transform(X))))
            assert pipe.predict(X).tobytes() == pipe.model.predict(copied).tobytes()
            assert list(map(repr, X.ravel())) == list(map(repr, before.ravel()))


class TestServedTables:
    @pytest.mark.parametrize("impute", IMPUTE_METHODS)
    @pytest.mark.parametrize("encode", ["ordinal", "onehot"])
    def test_float_table_predicts_like_object_table(self, tmp_path, encode, impute):
        rng = np.random.default_rng(11)
        lines = ["a,b,c,y"]
        for i in range(60):
            a, b, c = rng.normal(size=3)
            cells = ["" if (i + k) % 9 == 0 else repr(float(v)) for k, v in enumerate((a, b, c))]
            lines.append(",".join(cells) + f",{a - 2 * b + rng.normal():.6f}")
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ds = load_csv(path, "y")
        assert ds.X.dtype == np.float64
        pipe = fit_pipeline_on_rows(_spec(encode, impute), ds, np.arange(40))
        on_floats = pipe.predict(ds.X)
        on_objects = pipe.predict(ds.X.astype(object))
        assert on_floats.tobytes() == on_objects.tobytes()
        for i in (0, 41, 59):
            row = ds.X[i : i + 1]
            assert pipe.predict(row).tobytes() == pipe.predict(row.astype(object)).tobytes()

    @pytest.mark.parametrize("encode", ["ordinal", "onehot"])
    def test_test_file_category_order_and_unseen_level(self, tmp_path, encode):
        # The test file lists its levels in another first-appearance order
        # and has one the fit never saw, so position codes in either file's
        # own vocabulary would map to the wrong levels.
        rng = np.random.default_rng(4)
        effect = {"red": 0.0, "green": 2.0, "blue": -1.5, "violet": 5.0}
        train_levels = ["red", "green", "blue"] * 12
        test_levels = ["violet", "blue", "green", "red", "", "violet", "green", "blue"]

        def write(name, levels):
            rows, lines = [], ["x,colour,y"]
            for c in levels:
                x = float(rng.normal())
                rows.append([x, c or None])
                lines.append(f"{x!r},{c},{x + effect.get(c, 0.0) + rng.normal():.6f}")
            path = tmp_path / name
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            return load_csv(path, "y"), obj(rows)

        train, _ = write("train.csv", train_levels)
        test, raw_test = write("test.csv", test_levels)
        assert train.schema[1].categories == ("red", "green", "blue")
        assert test.schema[1].categories == ("violet", "blue", "green", "red")
        pipe = fit_pipeline_on_rows(_spec(encode, "mean"), train, np.arange(train.n_rows))
        fitted_columns = [{"kind": "numeric"},
                          {"kind": "categorical", "mapping": {"red": 0, "green": 1, "blue": 2}}]
        encoded = reference_transform(fitted_columns, encode, raw_test)
        assert pipe.encoder.transform(test.X).tobytes() == encoded.tobytes()
        expected = pipe.model.predict(
            pipe.selector.transform(pipe.scaler.transform(pipe.imputer.transform(encoded)))
        )
        assert pipe.predict(test.X).tobytes() == expected.tobytes()


class TestImputer:
    def test_mean(self):
        out = Imputer("mean").fit_transform(np.array([[1.0], [np.nan], [3.0]]))
        assert out[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_entirely_missing_column_errors(self):
        with pytest.raises(ImputationError):
            Imputer("mean").fit(np.array([[np.nan], [np.nan]]))

    def test_constant_allows_empty_column(self):
        out = Imputer("constant", value=7.0).fit_transform(np.array([[np.nan], [np.nan]]))
        assert out[:, 0].tolist() == [7.0, 7.0]

    def test_median_and_mode(self):
        X = np.array([[1.0], [1.0], [5.0], [np.nan]])
        assert Imputer("median").fit_transform(X)[3, 0] == 1.0
        assert Imputer("mode").fit_transform(X)[3, 0] == 1.0

    def test_mode_tie_takes_smallest(self):
        X = np.array([[2.0], [1.0], [2.0], [1.0], [np.nan]])
        assert Imputer("mode").fit_transform(X)[4, 0] == 1.0

    def test_knn_tie_prefers_lower_row(self):
        # Query (1, nan): rows (0,0) and (2,2) are equidistant on the shared
        # coordinate, so the lower row index wins and fills with 0.
        X = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, np.nan]])
        out = Imputer("knn", k=1).fit_transform(X)
        assert out[2, 1] == 0.0

    def test_knn_statistics_frozen_for_transform(self):
        train = np.array([[0.0, 0.0], [4.0, 4.0]])
        imp = Imputer("knn", k=1).fit(train)
        filled = imp.transform(np.array([[0.5, np.nan]]))
        assert filled[0, 1] == 0.0

    def test_frozen_statistics_reapply(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 3))
        X[rng.uniform(size=X.shape) < 0.2] = np.nan
        for method in ("mean", "median", "mode", "knn"):
            imp = Imputer(method).fit(X)
            a = imp.transform(X)
            b = imp.transform(X)
            assert np.array_equal(a, b)
            assert not np.isnan(a).any()

    def test_state_round_trip(self):
        X = np.array([[1.0, np.nan], [2.0, 5.0], [np.nan, 7.0]])
        imp = Imputer("knn", k=2).fit(X)
        clone = Imputer.from_state(imp.to_state())
        assert np.array_equal(clone.transform(X), imp.transform(X))


class TestScaler:
    def test_constant_column_standardize(self):
        out = Scaler("standardize").fit_transform(np.array([[3.0], [3.0], [3.0]]))
        assert out[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_minmax(self):
        out = Scaler("minmax").fit_transform(np.array([[0.0], [10.0]]))
        assert out[:, 0].tolist() == [0.0, 1.0]

    def test_robust_against_quantile_oracle(self):
        col = np.array([1.0, 2.0, 3.0, 100.0])
        med = np.quantile(col, 0.5)
        iqr = np.quantile(col, 0.75) - np.quantile(col, 0.25)
        expected = (col - med) / iqr
        out = Scaler("robust").fit_transform(col.reshape(-1, 1))
        assert out[:, 0] == pytest.approx(expected, abs=1e-12)
        # Linear-interpolation quartiles: q25=1.75, q75=27.25.
        assert iqr == pytest.approx(25.5)
        assert out[:, 0] == pytest.approx(
            [-0.0588235294, -0.0196078431, 0.0196078431, 3.8235294118], abs=1e-9
        )

    def test_none_is_identity(self):
        X = np.array([[1.0, -4.0], [2.0, 8.0]])
        assert np.array_equal(Scaler("none").fit_transform(X), X)

    def test_state_round_trip(self):
        X = np.random.default_rng(2).normal(size=(10, 2))
        sc = Scaler("robust").fit(X)
        clone = Scaler.from_state(sc.to_state())
        assert np.array_equal(clone.transform(X), sc.transform(X))


class TestSelector:
    def test_variance_drops_constant(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        sel = Selector("variance", threshold=0.0).fit(X)
        assert sel.mask_.tolist() == [True, False]

    def test_topk_keeps_correlated(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=50)
        X = np.column_stack([rng.normal(size=50), -2.0 * y])
        sel = Selector("topk_corr", k=1).fit(X, y)
        assert sel.mask_.tolist() == [False, True]

    def test_all_constant_fallback_keeps_first(self):
        X = np.ones((5, 3))
        sel = Selector("variance", threshold=0.5).fit(X)
        assert sel.mask_.tolist() == [True, False, False]

    def test_topk_tie_prefers_lower_index(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([y, y])  # identical correlation
        sel = Selector("topk_corr", k=1).fit(X, y)
        assert sel.mask_.tolist() == [True, False]

    def test_mask_reproducible_from_state(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 5))
        y = X[:, 2] + 0.1 * rng.normal(size=30)
        sel = Selector("topk_corr", k=2).fit(X, y)
        clone = Selector.from_state(sel.to_state())
        assert np.array_equal(clone.transform(X), sel.transform(X))

    def test_bad_method(self):
        with pytest.raises(ConfigurationError):
            Selector("pca")


class TestComposition:
    def test_row_count_preserved(self):
        rng = np.random.default_rng(5)
        n = 37
        cells = np.empty((n, 2), dtype=object)
        cells[:, 0] = rng.normal(size=n)
        cells[:, 1] = rng.choice(["u", "v", "w"], size=n)
        cells[3, 0] = np.nan
        schema = [NUM, ColumnSchema("c", "categorical", categories=("u", "v", "w"))]
        X = Encoder("onehot").fit_transform(cells, schema)
        assert len(X) == n
        X = Imputer("median").fit_transform(X)
        assert len(X) == n
        X = Scaler("standardize").fit_transform(X)
        assert len(X) == n
        X = Selector("variance", threshold=0.0).fit(X, None).transform(X)
        assert len(X) == n

    def test_get_params_round_trip(self):
        sel = Selector("topk_corr", k=3)
        assert sel.get_params() == {"method": "topk_corr", "threshold": 0.0, "k": 3}
        sel.set_params(k=5)
        assert sel.k == 5
