"""Repeated runs of the benchmark, summarised for the README.

    python3 bench/report.py spread --workload messy-kfold-p2 --seeds 1-10
    python3 bench/report.py reference

``spread`` runs one workload untraced once per seed, each in its own
process, and prints every end-to-end metric's median and its quartile
spread (the distance between the first and third quartile as a share of
the median, from ``statistics.quantiles(values, n=4)``).

``reference`` runs every workload at the default seed, untraced and then
traced, and prints the reference figures: the end-to-end metrics, tail
latencies, the tracing overhead on ``fit_s``, the per-layer metrics, and
the sha256 of ``history.jsonl`` with the best validation loss.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("poisson-holdout", "imbalanced-holdout", "messy-kfold-p2")
DEFAULT_SEED = 1


def run_once(workload: str, seed: int, trace: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark process; returns its printed summary and its result.json."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    summary = json.loads(out.stdout.strip().splitlines()[-1])
    suffix = "-trace" if trace else ""
    result_json = BENCH_DIR / "runs" / f"{workload}-seed{seed}{suffix}" / "result.json"
    details = json.loads(result_json.read_text())
    return summary, details


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args) -> None:
    values: dict[str, list[float]] = {}
    for seed in seed_range(args.seeds):
        summary, details = run_once(args.workload, seed, 0, args.seconds)
        print(f"seed {seed}: correct={summary['correct']} attempted={summary['attempted']} "
              f"failed={summary['failed']} served={details['served']}", flush=True)
        for name, metric in summary["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"| {args.workload} | median | quartile spread |")
    print("|---|---|---|")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"| `{name}` | {med:.6g} | {(q3 - q1) / med:.3f} |")


def reference(args) -> None:
    for workload in WORKLOADS:
        plain, plain_details = run_once(workload, DEFAULT_SEED, 0, args.seconds)
        traced, traced_details = run_once(workload, DEFAULT_SEED, 1, args.seconds)
        overhead = traced_details["fit_s"] - plain_details["fit_s"]
        print(f"### {workload} (seed {DEFAULT_SEED})\n")
        print(f"- served: {plain_details['served']}")
        print(f"- history.jsonl sha256 `{plain_details['history_sha256']}`, "
              f"best validation loss {plain_details['best_loss']!r}")
        quality = plain_details["quality"].items()
        print("- quality: " + ", ".join(f"{k} {v:.4f}" for k, v in quality))
        print(f"- tracing overhead on fit_s: {overhead:+.2f} s "
              f"({traced_details['fit_s']:.2f} s traced, {plain_details['fit_s']:.2f} s untraced)")
        for op in ("load_s", "predict_row_s", "batch_s"):
            t = plain_details[op]
            line = f"- {op[:-2]}: median {1e3 * t['p50']:.3f} ms over {t['n']} calls"
            if "tail" in t:
                line += f", p{100 * t['tail']['p']:g} {1e3 * t['tail']['value']:.3f} ms"
            print(line)
        print()
        print("| metric | value | unit |\n|---|---|---|")
        for summary in (plain, traced):
            for name, metric in summary["metrics"].items():
                print(f"| `{name}` | {metric['value']:.6g} | {metric['unit']} |")
        print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_spread = sub.add_parser("spread")
    p_spread.add_argument("--workload", required=True, choices=WORKLOADS)
    p_spread.add_argument("--seeds", default="1-10")
    p_spread.add_argument("--seconds", type=float, default=25.0)
    p_ref = sub.add_parser("reference")
    p_ref.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    if args.mode == "spread":
        spread(args)
    else:
        reference(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
