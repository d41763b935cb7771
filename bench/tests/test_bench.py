"""Tests of the benchmark itself: its formulas, its span arithmetic, its output.

    python3 -m pytest bench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def test_poisson_deviance_hand_worked():
    # Terms: y=0 gives mu - 0 = 1; y=1 gives 0 + ln 1 = 0; y=2 gives
    # -1 + 2 ln 2. Mean times two: (4 ln 2) / 3.
    assert checks.poisson_deviance([0, 1, 2], [1.0, 1.0, 1.0]) == pytest.approx(4 * math.log(2) / 3)
    assert checks.poisson_deviance([3, 5], [3.0, 5.0]) == 0.0
    # All-zero counts: deviance is 2 * mean(mu).
    assert checks.poisson_deviance([0, 0], [0.5, 1.5]) == pytest.approx(2.0)


def test_rank_count_auc_hand_worked():
    # Pairs (pos, neg): (0.9, 0.1) win, (0.9, 0.4) win, (0.4, 0.1) win,
    # (0.4, 0.4) tie counts half: 3.5 of 4.
    assert checks.rank_count_auc([1, 0, 1, 0], [0.9, 0.1, 0.4, 0.4]) == 0.875
    assert checks.rank_count_auc([0, 0, 1], [0.1, 0.2, 0.3]) == 1.0
    assert checks.rank_count_auc([1, 1, 0], [0.1, 0.2, 0.3]) == 0.0
    assert checks.rank_count_auc([1, 0], [0.5, 0.5]) == 0.5
    with pytest.raises(ValueError):
        checks.rank_count_auc([1, 1], [0.1, 0.2])


def test_covered_length_merges_overlaps_and_clips():
    # [1,3] and [2,5] overlap (two threads at once): 4; [8,9]: 1;
    # [9.5,12] clipped to the parent's end at 10: 0.5.
    intervals = [(8.0, 9.0), (1.0, 3.0), (9.5, 12.0), (2.0, 5.0)]
    assert tracing.covered_length(intervals, 0.0, 10.0) == pytest.approx(5.5)
    assert tracing.covered_length([], 0.0, 10.0) == 0.0


def test_self_time_subtracts_children_only():
    spans = [
        Span(1, None, "engine.optimize", "fit", 0.0, 10.0),
        Span(2, 1, "engine.evaluate", "fit", 1.0, 3.0),
        Span(3, 1, "engine.evaluate", "fit", 2.0, 5.0),
        Span(4, 2, "models.cart.fit", "fit", 1.5, 2.5),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(6.0)  # 10 minus the union [1, 5]
    assert own[2] == pytest.approx(1.0)  # grandchild counts against its parent only
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_forest_inner_trees_count_as_cart_time():
    spans = [
        Span(1, None, "engine.optimize", "fit", 0.0, 12.0),
        Span(2, 1, "engine.evaluate", "fit", 0.0, 12.0),
        Span(3, 2, "models.random_forest.fit", "fit", 1.0, 10.0),
        Span(4, 3, "models.cart.fit", "fit", 2.0, 5.0),
        Span(5, 3, "models.cart.fit", "fit", 5.0, 9.0),
        Span(6, None, "engine.load", "serve", 20.0, 20.004),
        Span(7, 6, "engine.build_pipeline", "serve", 20.001, 20.004),
    ]
    got = tracing.layer_metrics(
        spans, setup_reps=1, statuses=["valid", "invalid"], parallelism=1, members=0
    )
    assert got["models.random_forest.fit_s"] == pytest.approx(2.0)
    assert got["models.cart.fit_s"] == pytest.approx(7.0)
    assert got["models.cart.fits"] == 2
    assert got["engine.trial_s"] == pytest.approx(12.0)
    assert got["engine.pool_busy_ratio"] == pytest.approx(1.0)
    assert got["engine.valid_ratio"] == 0.5
    assert got["engine.load_parse_ms"] == pytest.approx(1.0)
    assert got["engine.load_build_ms"] == pytest.approx(3.0)
    assert set(got) == {name for name, _, _ in tracing.layer_metric_specs()}


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        tracing.layer_metric_specs()
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_the_benchmark_metrics(workload, trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "poisson-holdout", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
