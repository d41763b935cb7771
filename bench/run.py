"""Fit-and-serve benchmark of tabcash, one workload per process.

    python3 bench/run.py --workload poisson-holdout --seed 1 --seconds 25 --trace 0

A run builds its inputs from ``--seed`` (the set-up), fits once through
the public API (``optimize``, then the served model is built, the history
persisted and ``model.json`` saved), checks the fitted model against
computations made here, then measures for ``--seconds`` seconds from one
caller in a closed loop. That window interleaves four operations with
equal shares of the time: the set-up again, loading ``model.json``, a
one-row prediction, and a batch prediction of the workload's
``batch_rows`` rows. Predictions come from the latest loaded model and
are checked bit for bit against the in-memory model.

The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Run outputs go to ``bench/runs/<workload>-seed<n>[-trace][-smoke]/``.
"""

import os

# One BLAS thread, set before numpy loads: a run then keeps at most
# ``parallelism`` threads busy, whatever the machine's BLAS defaults to.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
RUNS_DIR = BENCH_DIR / "runs"
WORKLOAD_NAMES = ("poisson-holdout", "imbalanced-holdout", "messy-kfold-p2")

REFERENCE_ROWS = 20

END_TO_END = (
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("load_ms", "ms"),
    ("predict_row_ms", "ms"),
    ("score_rows_per_s", "rows/s"),
    ("model_kb", "kB"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs for the benchmark's own tests; figures not comparable")
    return parser.parse_args(argv)


def tail(samples) -> dict:
    """Median, plus the highest of p90/p99/p99.9 with ten samples beyond it."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    ordered = sorted(samples)
    for p in (0.9, 0.99, 0.999):
        if len(samples) * (1 - p) >= 10:
            out["tail"] = {"p": p, "value": ordered[int(p * len(samples))]}
    return out


class Run:
    """Counts operations and check failures across one run."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []

    def phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def fail(self, exc: BaseException, check_failed: bool) -> None:
        self.failed += 1
        self.correct = self.correct and not check_failed
        if len(self.errors) < 20:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def check_fit(workload, seed, inputs, model, served, workdir) -> dict:
    """Checks on the fitted model, each made apart from the program."""
    import numpy as np

    from tabcash import ensemble

    import checks
    import workloads

    X_test, y_test = inputs.test.X, inputs.test.y
    in_memory = model.predict_bundle(X_test)
    checks.require(checks.same_bundle(served.predict_bundle(X_test), in_memory),
                   "loaded model.json does not predict bit-identically to the fitted model")
    with open(workdir / "history.jsonl", encoding="utf-8") as fh:
        checks.check_history([json.loads(line) for line in fh], workload.max_evals)

    if workload.kind == "poisson":
        X_num, y_full = workloads.complete_numeric(workload, seed, inputs.test_rows)
        observed = np.asarray(X_test[:, : workload.n_numeric], dtype=float)
        present = ~np.isnan(observed)
        checks.require(bool(np.array_equal(observed[present], X_num[present]))
                       and bool(np.array_equal(y_full, y_test)),
                       "complete regeneration disagrees with the loaded test rows")
        true_rates = np.exp(X_num @ np.asarray(workload.coefficients))
        quality = checks.check_poisson(in_memory.values, y_test, inputs.train.y, true_rates,
                                       workload.deviance_factor)
    else:
        X_num = np.asarray(X_test[:, : workload.n_numeric], dtype=float)
        quality = checks.check_auc(in_memory.probabilities, y_test, X_num)

    if isinstance(model, ensemble.EnsembleModel):
        checks.require(model.n_members == workload.members,
                       f"ensemble has {model.n_members} members, expected {workload.members}")
        checks.check_member_mean(
            in_memory.values, [m.pipeline.predict_bundle(X_test).values for m in model.members]
        )
    return quality


def serve(state, seconds, setup, model_path, served, rows, row_refs, batch, batch_ref) -> dict:
    """Interleave set-ups, loads, one-row and batch predictions for ``seconds``.

    Returns the seconds of each successful call, by operation.
    """
    from tabcash import ensemble

    import checks

    samples = {"setup": [], "load": [], "row": [], "batch": []}
    spent = dict.fromkeys(samples, 0.0)

    def timed(op, fn, arg, reference=None):
        state.attempted += 1
        started = time.perf_counter()
        try:
            out = fn(arg)
        except Exception as exc:  # a failed operation is counted, not fatal
            state.fail(exc, check_failed=False)
            out = None
        elapsed = time.perf_counter() - started
        spent[op] += elapsed
        if out is not None:
            samples[op].append(elapsed)
            if reference is not None and not checks.same_bundle(out, reference):
                state.fail(checks.CheckFailed("served prediction differs from the fitted model"),
                           check_failed=True)
        return out

    calls = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or 0.0 in spent.values():
        # Next comes the operation with the least time so far, so all four
        # share the window evenly and meet the same machine conditions.
        op = min(spent, key=spent.get)
        if op == "setup":
            state.phase("setup")
            started = time.perf_counter()
            setup()
            samples[op].append(time.perf_counter() - started)
            spent[op] += samples[op][-1]
            state.phase("serve")
        elif op == "load":
            loaded = timed(op, ensemble.load_model, model_path)
            if loaded is not None:
                served = loaded
        elif op == "row":
            i = calls % len(rows)
            timed(op, served.predict_bundle, rows[i], row_refs[i])
            calls += 1
        else:
            timed(op, served.predict_bundle, batch, batch_ref)
    return samples


def run(args) -> dict:
    import numpy as np

    from tabcash import engine, ensemble, metrics

    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    suffix = "-trace" if args.trace else ""
    if args.smoke:
        workload = workloads.smoke(workload)
        suffix += "-smoke"
    workdir = RUNS_DIR / f"{workload.name}-seed{args.seed}{suffix}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    model_path = workdir / "model.json"

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    state = Run(tracer)

    # The fit uses this set-up; timed set-ups repeat it while serving.
    state.phase("warmup")
    inputs = workloads.setup(workload, args.seed, workdir)

    state.phase("fit")
    state.attempted += 1
    started = time.perf_counter()
    result = engine.optimize(
        inputs.train,
        inputs.search_space,
        engine.Budget(workloads.TIME_BUDGET_S, workload.max_evals),
        sampler="random",
        metric=metrics.get_metric(workload.objective),
        seed=workload.search_seed,
        parallelism=workload.parallelism,
        protocol=engine.Protocol(mode=workload.validation, seed=args.seed),
    )
    if workload.members:
        model = ensemble.build_stacking(result.history, workload.members)
    else:
        model = result.best
    engine.persist_history(result.history, workdir, best=result.best,
                           experiment=workload.name, elapsed_seconds=result.elapsed_seconds)
    ensemble.save_model(model, model_path)
    fit_s = time.perf_counter() - started

    state.phase("check")
    served = ensemble.load_model(model_path)
    quality = {}
    try:
        quality = check_fit(workload, args.seed, inputs, model, served, workdir)
    except checks.CheckFailed as exc:
        state.fail(exc, check_failed=True)
    X_test = inputs.test.X
    rows = [X_test[i : i + 1] for i in range(min(REFERENCE_ROWS, len(X_test)))]
    row_refs = [model.predict_bundle(r) for r in rows]
    batch = X_test[np.arange(workload.batch_rows) % len(X_test)]
    batch_ref = model.predict_bundle(batch)

    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "fit_s": fit_s,
        "history_sha256": hashlib.sha256((workdir / "history.jsonl").read_bytes()).hexdigest(),
        "best_k": result.best_k,
        "best_loss": result.history[result.best_k].eval_loss,
        "served": getattr(model, "strategy", None) or model.spec.summary(),
        "quality": quality,
    }
    statuses = [t.status for t in result.history]
    members = model.n_members if isinstance(model, ensemble.EnsembleModel) else 0
    # Serve from a heap that holds the served model and its inputs only.
    del result, model, inputs
    gc.collect()

    state.phase("serve")
    samples = serve(state, args.seconds, lambda: workloads.setup(workload, args.seed, workdir),
                    model_path, served, rows, row_refs, batch, batch_ref)
    details.update({
        "setup_s": tail(samples["setup"]),
        "load_s": tail(samples["load"]),
        "predict_row_s": tail(samples["row"]),
        "batch_s": tail(samples["batch"]),
        "errors": state.errors,
    })

    if args.trace:
        figures = tracing.layer_metrics(
            tracer.spans, len(samples["setup"]), statuses, workload.parallelism, members
        )
        units = {name: unit for name, unit, _ in tracing.layer_metric_specs()}
        tracer.write(workdir / "spans.jsonl")
    else:
        figures = {
            "setup_s": statistics.median(samples["setup"]),
            "fit_s": fit_s,
            "load_ms": 1e3 * statistics.median(samples["load"]),
            "predict_row_ms": 1e3 * statistics.median(samples["row"]),
            "score_rows_per_s": workload.batch_rows / statistics.median(samples["batch"]),
            "model_kb": model_path.stat().st_size / 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = dict(END_TO_END)
    summary = {
        "correct": state.correct,
        "attempted": state.attempted,
        "failed": state.failed,
        "metrics": {name: {"value": figures[name], "unit": units[name]} for name in units},
    }
    details["summary"] = summary
    (workdir / "result.json").write_text(json.dumps(details, indent=2) + "\n")
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "tabcash" / "__init__.py").is_file():
        print(f"tabcash sources not found under {SRC_DIR}; nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    summary = run(args)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
