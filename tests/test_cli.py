import json

import numpy as np
import pytest

from tabcash.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_OPTIMIZATION,
    ExperimentConfig,
    _FLAG_TYPES,
    _config_from_args,
    build_parser,
    main,
)
from tabcash.errors import ConfigurationError
from tabcash.synthdata import GeneratorSpec, generate
from tabcash.tabular import load_csv, split_dataset, write_csv


def write_config(tmp_path, config_name="config.json", **updates):
    payload = {
        "model_name": "exp",
        "data_path": str(tmp_path / "train.csv"),
        "response_column": "response",
        "objective": "mse",
        "max_evals": 4,
        "timeout": 120.0,
        "validation": "holdout",
        "valid_size": 0.25,
        "search_algo": "random",
        "task": "regression",
        "seed": 0,
        "output_dir": str(tmp_path / "runs"),
    }
    payload.update(updates)
    path = tmp_path / config_name
    path.write_text(json.dumps(payload))
    return path


def write_regression_data(tmp_path, n=60, seed=0):
    ds = generate(GeneratorSpec(kind="gaussian", n_rows=n, n_features=3, seed=seed))
    write_csv(ds, tmp_path / "train.csv")
    return ds


class TestConfig:
    def test_round_trip_identity(self):
        cfg = ExperimentConfig(
            model_name="m", data_path="d.csv", response_column="y", objective="auc"
        )
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        thrice = ExperimentConfig.from_dict(again.to_dict())
        assert thrice.to_dict() == again.to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"model_name": "m", "nonsense": 1})

    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(max_evals=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(validation="holdout", valid_size=1.5)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(validation="kfold", folds=1)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(timeout=-5)

    def test_parallelism_env(self, monkeypatch):
        cfg = ExperimentConfig(model_name="m")
        monkeypatch.setenv("TABCASH_PARALLELISM", "3")
        assert cfg.resolved_parallelism() == 3
        monkeypatch.delenv("TABCASH_PARALLELISM")
        assert cfg.resolved_parallelism() == 1


# One override per flag: (field, flag, argument, parsed value).
OVERRIDES = [
    ("model_name", "--model-name", "other", "other"),
    ("data_path", "--data", "other.csv", "other.csv"),
    ("response_column", "--response-column", "target", "target"),
    ("test_path", "--test-data", "test.csv", "test.csv"),
    ("objective", "--objective", "mae", "mae"),
    ("max_evals", "--max-evals", "7", 7),
    ("timeout", "--timeout", "30.5", 30.5),
    ("validation", "--validation", "kfold", "kfold"),
    ("valid_size", "--valid-size", "0.3", 0.3),
    ("folds", "--folds", "5", 5),
    ("search_algo", "--search-algo", "adaptive", "adaptive"),
    ("ensemble", "--ensemble", "bagging", "bagging"),
    ("n_members", "--n-members", "3", 3),
    ("voting", "--voting", "median", "median"),
    ("feature_fraction", "--feature-fraction", "0.5", 0.5),
    ("task", "--task", "binary_classification", "binary_classification"),
    ("seed", "--seed", "3", 3),
    ("parallelism", "--parallelism", "2", 2),
    ("output_dir", "--output-dir", "elsewhere", "elsewhere"),
    ("offset_column", "--offset-column", "exposure", "exposure"),
]


class TestOverrides:
    def test_every_flag_is_listed(self):
        assert {name for name, *_ in OVERRIDES} == set(_FLAG_TYPES)

    @pytest.mark.parametrize("command", ["fit", "glm-baseline"])
    @pytest.mark.parametrize("name,flag,arg,value", OVERRIDES, ids=[o[1] for o in OVERRIDES])
    def test_flag_overrides_only_its_field(self, tmp_path, command, name, flag, arg, value):
        cfg = write_config(tmp_path)
        base = ExperimentConfig.from_dict(json.loads(cfg.read_text())).to_dict()
        args = build_parser().parse_args([command, "--config", str(cfg), flag, arg])
        got = _config_from_args(args).to_dict()
        assert base[name] != value
        assert got == {**base, name: value}

    def test_overrides_reach_the_fit(self, tmp_path):
        other = tmp_path / "other.csv"
        write_csv(generate(GeneratorSpec(kind="gaussian", n_rows=50, n_features=3, seed=5)), other)
        cfg = write_config(tmp_path, data_path=str(tmp_path / "absent.csv"))
        code = main(
            ["fit", "--config", str(cfg), "--max-evals", "2", "--seed", "3", "--data", str(other)]
        )
        assert code == EXIT_OK
        out_dir = tmp_path / "runs" / "exp"
        assert len((out_dir / "history.jsonl").read_text().splitlines()) == 2
        echo = json.loads((out_dir / "manifest.json").read_text())["config"]
        assert echo["seed"] == 3
        assert echo["max_evals"] == 2
        assert echo["data_path"] == str(other)


class TestFit:
    def test_fit_writes_artifacts_within_budget(self, tmp_path, capsys):
        write_regression_data(tmp_path)
        cfg = write_config(tmp_path, max_evals=6)
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        out_dir = tmp_path / "runs" / "exp"
        history = (out_dir / "history.jsonl").read_text().strip().splitlines()
        assert len(history) <= 6
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "model.json").exists()
        assert (out_dir / "predictions_train.csv").exists()
        assert "train:" in capsys.readouterr().out

    def test_fit_deterministic_history(self, tmp_path):
        write_regression_data(tmp_path)
        cfg_a = write_config(tmp_path, "cfg_a.json", model_name="a", parallelism=1, seed=9)
        cfg_b = write_config(tmp_path, "cfg_b.json", model_name="b", parallelism=1, seed=9)
        assert main(["fit", "--config", str(cfg_a)]) == EXIT_OK
        assert main(["fit", "--config", str(cfg_b)]) == EXIT_OK
        ha = (tmp_path / "runs" / "a" / "history.jsonl").read_bytes()
        hb = (tmp_path / "runs" / "b" / "history.jsonl").read_bytes()
        assert ha == hb

    def test_poisson_objective_with_negative_response_fails_fast(self, tmp_path):
        ds = generate(GeneratorSpec(kind="gaussian", n_rows=40, n_features=2, seed=1))
        write_csv(ds, tmp_path / "train.csv")
        cfg = write_config(tmp_path, objective="poisson_deviance")
        assert main(["fit", "--config", str(cfg)]) == EXIT_CONFIG
        assert not (tmp_path / "runs" / "exp" / "history.jsonl").exists()

    def test_bad_config_exit_code(self, tmp_path):
        write_regression_data(tmp_path)
        cfg = write_config(tmp_path, max_evals=0)
        assert main(["fit", "--config", str(cfg)]) == EXIT_CONFIG

    def test_config_not_an_object_exit_code(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        assert main(["fit", "--config", str(cfg)]) == EXIT_CONFIG

    def test_missing_data_file_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, data_path=str(tmp_path / "absent.csv"))
        assert main(["fit", "--config", str(cfg)]) != EXIT_OK

    def test_zero_valid_trials_exit_code(self, tmp_path):
        ds = write_regression_data(tmp_path)
        constant = ds.with_response(np.ones(ds.n_rows))
        write_csv(constant, tmp_path / "train.csv")
        cfg = write_config(tmp_path, objective="r2", max_evals=3)
        assert main(["fit", "--config", str(cfg)]) == EXIT_OPTIMIZATION
        # history persisted even though the search failed
        assert (tmp_path / "runs" / "exp" / "history.jsonl").exists()

    def test_fit_with_kfold_records_fold_losses(self, tmp_path):
        write_regression_data(tmp_path)
        cfg = write_config(tmp_path, validation="kfold", folds=3, max_evals=3)
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        lines = (
            (tmp_path / "runs" / "exp" / "history.jsonl").read_text().strip().splitlines()
        )
        records = [json.loads(line) for line in lines]
        assert any(
            r["status"] == "valid" and len(r["fold_losses"]) == 3 for r in records
        )

    def test_fit_with_test_file_and_stacking(self, tmp_path, capsys):
        ds = generate(GeneratorSpec(kind="gaussian", n_rows=100, n_features=3, seed=4))
        split = split_dataset(ds, test_fraction=0.2, valid_fraction=0.0, seed=0)
        write_csv(ds.take_rows(split.train_indices), tmp_path / "train.csv")
        write_csv(ds.take_rows(split.test_indices), tmp_path / "test.csv")
        cfg = write_config(
            tmp_path,
            test_path=str(tmp_path / "test.csv"),
            ensemble="stacking",
            n_members=3,
            max_evals=6,
        )
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "runs" / "exp" / "report.json").read_text())
        assert "test" in report and "mse" in report["test"]
        assert (tmp_path / "runs" / "exp" / "predictions_test.csv").exists()


class TestEnsembleStrategies:
    def test_bagging_fit_writes_group_histories(self, tmp_path, capsys):
        ds = generate(GeneratorSpec(kind="gaussian", n_rows=80, n_features=4, seed=8))
        write_csv(ds, tmp_path / "train.csv")
        cfg = write_config(
            tmp_path, ensemble="bagging", n_members=2, feature_fraction=0.5, max_evals=4
        )
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        out_dir = tmp_path / "runs" / "exp"
        assert (out_dir / "group_01" / "history.jsonl").exists()
        assert (out_dir / "group_02" / "history.jsonl").exists()
        assert (out_dir / "model.json").exists()
        capsys.readouterr()
        assert main(["history", "--dir", str(out_dir), "--top", "2"]) == EXIT_OK
        assert "incumbent curve" in capsys.readouterr().out

    def test_boosting_fit(self, tmp_path):
        ds = generate(GeneratorSpec(kind="gaussian", n_rows=80, n_features=3, seed=9))
        write_csv(ds, tmp_path / "train.csv")
        cfg = write_config(tmp_path, ensemble="boosting", n_members=2, max_evals=4)
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "runs" / "exp" / "report.json").read_text())
        assert "mse" in report["train"]

    @pytest.mark.parametrize("strategy", ["bagging", "boosting"])
    def test_failed_group_search_keeps_its_history(self, tmp_path, capsys, strategy):
        # A Gaussian response takes negative values, so every Poisson GLM fails.
        ds = generate(GeneratorSpec(kind="gaussian", n_rows=120, n_features=3, seed=8))
        write_csv(ds, tmp_path / "train.csv")
        cfg = write_config(
            tmp_path,
            ensemble=strategy,
            n_members=2,
            max_evals=4,
            space={"model": {"methods": ["poisson_glm"]}},
        )
        assert main(["fit", "--config", str(cfg)]) == EXIT_OPTIMIZATION
        group = tmp_path / "runs" / "exp" / "group_01"
        records = [json.loads(line) for line in (group / "history.jsonl").read_text().splitlines()]
        assert len(records) == 2 and all(r["status"] != "valid" for r in records)
        assert json.loads((group / "manifest.json").read_text())["failures"]
        err = capsys.readouterr().err
        assert "optimization failed" in err and " x " in err

    def test_truncating_boosting_stage_keeps_its_history(self, tmp_path):
        # Stage 1 fits counts; the stage-2 residuals go negative, so the
        # Poisson-only menu has no valid trial and the ensemble stops at one.
        ds = generate(GeneratorSpec(kind="poisson", n_rows=120, n_features=3, seed=8))
        write_csv(ds, tmp_path / "train.csv")
        cfg = write_config(
            tmp_path,
            ensemble="boosting",
            n_members=2,
            max_evals=4,
            space={"model": {"methods": ["poisson_glm"]}},
        )
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        out_dir = tmp_path / "runs" / "exp"
        assert len(json.loads((out_dir / "model.json").read_text())["members"]) == 1
        lines = (out_dir / "group_02" / "history.jsonl").read_text().splitlines()
        assert lines and all(json.loads(line)["status"] != "valid" for line in lines)

    def test_boosting_on_classification_is_config_error(self, tmp_path):
        ds = generate(
            GeneratorSpec(kind="imbalanced_binary", n_rows=80, imbalance_ratio=2.0, seed=10)
        )
        write_csv(ds, tmp_path / "train.csv")
        cfg = write_config(
            tmp_path,
            ensemble="boosting",
            task="binary_classification",
            objective="accuracy",
        )
        assert main(["fit", "--config", str(cfg)]) == EXIT_CONFIG


class TestPredict:
    def _fit(self, tmp_path, **cfg_updates):
        write_regression_data(tmp_path)
        cfg = write_config(tmp_path, **cfg_updates)
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        return tmp_path / "runs" / "exp" / "model.json"

    def test_predict_matches_fit_predictions(self, tmp_path):
        model = self._fit(tmp_path)
        out = tmp_path / "preds.csv"
        code = main(
            [
                "predict",
                "--model",
                str(model),
                "--data",
                str(tmp_path / "train.csv"),
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        saved = (tmp_path / "runs" / "exp" / "predictions_train.csv").read_text()
        assert out.read_text() == saved

    def test_predict_missing_column_named(self, tmp_path, capsys):
        model = self._fit(tmp_path)
        bad = tmp_path / "bad.csv"
        lines = (tmp_path / "train.csv").read_text().splitlines()
        header = lines[0].split(",")
        drop = header.index("x1")
        rows = [",".join(v for i, v in enumerate(line.split(",")) if i != drop) for line in lines]
        bad.write_text("\n".join(rows) + "\n")
        code = main(
            ["predict", "--model", str(model), "--data", str(bad), "--output", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_CONFIG
        assert "x1" in capsys.readouterr().err

    def test_predict_ignores_extra_column(self, tmp_path, capsys):
        model = self._fit(tmp_path)
        extra = tmp_path / "extra.csv"
        lines = (tmp_path / "train.csv").read_text().splitlines()
        rows = [lines[0] + ",bonus"] + [line + ",1" for line in lines[1:]]
        extra.write_text("\n".join(rows) + "\n")
        code = main(
            ["predict", "--model", str(model), "--data", str(extra), "--output", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_OK
        assert "bonus" in capsys.readouterr().err

    def test_forced_categorical_column_survives_predict_reload(self, tmp_path):
        # An integer-coded category column: inference would call it numeric,
        # the config forces categorical, and prediction must agree with fit.
        rng = np.random.default_rng(11)
        codes = rng.choice([10, 20, 30], size=60)
        y = (codes == 20).astype(float) * 2.0 + rng.normal(0, 0.1, 60)
        lines = ["region,response"] + [
            f"{codes[i]},{float(y[i])!r}" for i in range(60)
        ]
        (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path, column_kinds={"region": "categorical"}, max_evals=4
        )
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "preds.csv"
        assert (
            main(
                [
                    "predict",
                    "--model",
                    str(tmp_path / "runs" / "exp" / "model.json"),
                    "--data",
                    str(tmp_path / "train.csv"),
                    "--output",
                    str(out),
                ]
            )
            == EXIT_OK
        )
        saved = (tmp_path / "runs" / "exp" / "predictions_train.csv").read_text()
        assert out.read_text() == saved

    def test_predict_reads_the_fit_missing_tokens(self, tmp_path):
        # -999 marks a missing cell at fit time; predict must not read it as a number.
        rng = np.random.default_rng(13)
        a = rng.normal(size=80)
        b = rng.normal(size=80)
        y = 2.0 * a - b + rng.normal(0, 0.1, 80)
        cells = ["-999" if i % 7 == 0 else repr(float(a[i])) for i in range(80)]
        lines = ["a,b,response"] + [f"{cells[i]},{float(b[i])!r},{float(y[i])!r}" for i in range(80)]
        (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path, missing_tokens=["-999"], space={"impute": {"methods": ["mean"]}}
        )
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        model = tmp_path / "runs" / "exp" / "model.json"
        assert json.loads(model.read_text())["missing_tokens"] == ["-999"]
        out = tmp_path / "preds.csv"
        code = main(
            ["predict", "--model", str(model), "--data", str(tmp_path / "train.csv"),
             "--output", str(out)]
        )
        assert code == EXIT_OK
        saved = (tmp_path / "runs" / "exp" / "predictions_train.csv").read_text()
        assert out.read_text() == saved
        best = tmp_path / "runs" / "exp" / "best_pipeline.json"
        code = main(
            ["predict", "--model", str(best), "--data", str(tmp_path / "train.csv"),
             "--output", str(out)]
        )
        assert code == EXIT_OK
        assert out.read_text() == saved

    def test_default_tokens_are_not_written(self, tmp_path):
        saved = json.loads(self._fit(tmp_path, missing_tokens=["null", "NaN", "", "NA"]).read_text())
        assert "missing_tokens" not in saved
        assert list(saved).index("feature_schema") == list(saved).index("trial") + 1

    def test_malformed_missing_tokens_is_data_error(self, tmp_path, capsys):
        model = self._fit(tmp_path)
        payload = json.loads(model.read_text())
        payload["missing_tokens"] = "-999"
        model.write_text(json.dumps(payload))
        code = main(
            ["predict", "--model", str(model), "--data", str(tmp_path / "train.csv"),
             "--output", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_DATA
        assert "missing_tokens" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"kind": ["pipeline"]},
            {"kind": "pipeline", "schema_version": 2},
            {"kind": "ensemble", "schema_version": 2},
        ],
        ids=["list", "list-kind", "pipeline-without-fields", "ensemble-without-fields"],
    )
    def test_malformed_model_file_is_data_error(self, tmp_path, capsys, payload):
        write_regression_data(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code = main(
            [
                "predict",
                "--model",
                str(model),
                "--data",
                str(tmp_path / "train.csv"),
                "--output",
                str(tmp_path / "o.csv"),
            ]
        )
        assert code == EXIT_DATA
        assert "model.json" in capsys.readouterr().err

    def test_classification_probability_columns(self, tmp_path):
        ds = generate(
            GeneratorSpec(kind="imbalanced_binary", n_rows=80, imbalance_ratio=3.0, seed=2)
        )
        write_csv(ds, tmp_path / "train.csv")
        cfg = write_config(tmp_path, task="binary_classification", objective="auc", max_evals=4)
        assert main(["fit", "--config", str(cfg)]) == EXIT_OK
        out = tmp_path / "preds.csv"
        main(
            [
                "predict",
                "--model",
                str(tmp_path / "runs" / "exp" / "model.json"),
                "--data",
                str(tmp_path / "train.csv"),
                "--output",
                str(out),
            ]
        )
        header = out.read_text().splitlines()[0]
        assert header == "prediction,class_0,class_1"


class TestHistoryCommand:
    def test_history_prints_sorted_and_curve(self, tmp_path, capsys):
        write_regression_data(tmp_path)
        cfg = write_config(tmp_path, max_evals=5)
        main(["fit", "--config", str(cfg)])
        capsys.readouterr()
        code = main(["history", "--dir", str(tmp_path / "runs" / "exp"), "--top", "3"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "incumbent curve" in out
        losses = []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].isdigit():
                losses.append(float(parts[1]))
        assert losses == sorted(losses, reverse=True)

    def test_absent_history_exit_code(self, tmp_path):
        assert main(["history", "--dir", str(tmp_path)]) == EXIT_DATA


class TestGlmBaseline:
    def test_poisson_baseline_report(self, tmp_path, capsys):
        ds = generate(GeneratorSpec(kind="poisson", n_rows=300, n_features=3, seed=3))
        write_csv(ds, tmp_path / "train.csv")
        cfg = write_config(tmp_path, objective="poisson_deviance", model_name="pois")
        code = main(["glm-baseline", "--config", str(cfg)])
        assert code == EXIT_OK
        report = json.loads(
            (tmp_path / "runs" / "pois_glm" / "report.json").read_text()
        )
        assert np.isfinite(report["train"]["poisson_deviance"])

    def test_offset_column_enters_count_glm(self, tmp_path):
        # Exposure-style data: response is Poisson around exposure * rate.
        rng = np.random.default_rng(7)
        n = 400
        exposure = rng.uniform(0.5, 2.0, n)
        x0 = rng.normal(size=n)
        y = rng.poisson(exposure * np.exp(0.2 + 0.4 * x0))
        lines = ["x0,exposure,response"] + [
            f"{float(x0[i])!r},{float(exposure[i])!r},{y[i]}" for i in range(n)
        ]
        (tmp_path / "train.csv").write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path,
            objective="poisson_deviance",
            model_name="off",
            offset_column="exposure",
        )
        assert main(["glm-baseline", "--config", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "runs" / "off_glm" / "report.json").read_text())
        assert np.isfinite(report["train"]["poisson_deviance"])

    @pytest.mark.parametrize("bad_cells", [("", "-1.0"), ("abc",)], ids=["blank-negative", "text"])
    def test_test_file_exposure_is_checked(self, tmp_path, capsys, bad_cells):
        rng = np.random.default_rng(8)
        n = 60
        x0 = rng.normal(size=n)
        exposure = [repr(float(e)) for e in rng.uniform(0.5, 2.0, n)]
        y = rng.poisson(np.exp(0.3 * x0))

        def write(name, cells):
            rows = [f"{float(x0[i])!r},{cells[i]},{y[i]}" for i in range(n)]
            (tmp_path / name).write_text("\n".join(["x0,exposure,response"] + rows) + "\n")

        write("train.csv", exposure)
        write("test.csv", list(bad_cells) + exposure[len(bad_cells):])
        cfg = write_config(
            tmp_path,
            objective="poisson_deviance",
            offset_column="exposure",
            test_path=str(tmp_path / "test.csv"),
        )
        assert main(["glm-baseline", "--config", str(cfg)]) == EXIT_DATA
        assert "test.csv" in capsys.readouterr().err
        assert not (tmp_path / "runs" / "exp_glm" / "report.json").exists()

    def test_binary_baseline_uses_logistic(self, tmp_path):
        ds = generate(
            GeneratorSpec(kind="imbalanced_binary", n_rows=120, imbalance_ratio=2.0, seed=5)
        )
        write_csv(ds, tmp_path / "train.csv")
        cfg = write_config(
            tmp_path, task="binary_classification", objective="auc", model_name="bin"
        )
        assert main(["glm-baseline", "--config", str(cfg)]) == EXIT_OK
        report = json.loads((tmp_path / "runs" / "bin_glm" / "report.json").read_text())
        assert 0.5 <= report["train"]["auc"] <= 1.0


class TestSynthCommand:
    def test_synth_writes_loadable_csv(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main(
            [
                "synth",
                "--kind",
                "imbalanced_binary",
                "--rows",
                "200",
                "--features",
                "3",
                "--ratio",
                "4",
                "--seed",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        ds = load_csv(out, "response")
        assert ds.n_rows == 200
        counts = np.bincount(ds.y)
        assert counts.tolist() == [160, 40]
