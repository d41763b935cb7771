"""Spans around calls into each tabcash module, and the per-layer metrics.

``Tracer.install`` replaces public functions and methods of the tabcash
modules in this process with timing wrappers; nothing under ``src/`` is
edited. Every span records its name, start, end, the span that caused it,
the benchmark phase (setup, fit or serve) and a few counts. Spans stay in
memory and are written out when the run ends.

Self time is a span's duration minus the part of its interval that its
child spans cover, so a forest's inner ``Cart.fit`` calls count as CART
time, not forest time, and two trials running at once in the engine's
thread pool are not counted twice against the search loop.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass, field

MODEL_FAMILIES = (
    "dummy", "knn", "ridge", "logistic", "poisson_glm", "cart", "random_forest", "gbt",
)
BALANCE_METHODS = ("smote", "tomek", "enn", "cnn", "random_over", "random_under")
PREPROCESS_STAGES = ("encode", "impute", "scale", "select")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    phase: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        if stack:
            return stack[-1].id
        return getattr(self._local, "adopted", None)

    def begin(self, name: str) -> Span:
        span = Span(next(self._ids), self.current(), name, self.phase, time.perf_counter())
        self._stack().append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def adopt(self, parent: int | None, fn):
        """Run ``fn`` in another thread with ``parent`` as its causing span."""

        def run(*args, **kwargs):
            self._local.adopted = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.adopted = None

        return run

    def wrap(self, fn, name, attrs=None):
        """Timing wrapper; ``name`` may be a function of the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name(*args, **kwargs) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs.update(attrs(out, *args, **kwargs))
                return out
            finally:
                self.end(span)

        return traced

    def install(self) -> None:
        """Wrap the public calls of every tabcash layer in this process."""
        from concurrent.futures import ThreadPoolExecutor

        from tabcash import balance, engine, ensemble, metrics, preprocess, space, tabular
        from tabcash import models

        def patch_function(module, attr, name, attrs=None):
            setattr(module, attr, self.wrap(getattr(module, attr), name, attrs))

        def patch_method(cls, attr, name, attrs=None):
            setattr(cls, attr, self.wrap(cls.__dict__[attr], name, attrs))

        def patch_classmethod(cls, attr, name):
            setattr(cls, attr, classmethod(self.wrap(cls.__dict__[attr].__func__, name)))

        patch_function(tabular, "load_csv", "tabular.load_csv")
        patch_function(tabular, "write_csv", "tabular.write_csv")
        patch_function(space, "sample_random", "space.sample")

        stage_classes = zip(
            PREPROCESS_STAGES,
            (preprocess.Encoder, preprocess.Imputer, preprocess.Scaler, preprocess.Selector),
        )
        for stage, cls in stage_classes:
            for attr in ("fit", "transform"):
                patch_method(
                    cls, attr, lambda obj, *a, _s=stage, **k: f"preprocess.{_s}.{obj.method}"
                )
        patch_method(
            balance.Balancer,
            "fit_resample",
            lambda obj, *a, **k: f"balance.{obj.method}",
            lambda out, obj, X, *a, **k: {"rows_in": len(X), "rows_out": len(out[0])},
        )

        model_classes = (
            models.DummyModel, models.KNNModel, models.RidgeRegression, models.LogisticModel,
            models.PoissonGLM, models.Cart, models.RandomForest, models.GradientBoosted,
        )
        for cls in model_classes:
            patch_method(cls, "fit", f"models.{cls.method}.fit")
            for attr in ("predict", "predict_proba"):
                if attr in cls.__dict__:
                    patch_method(cls, attr, f"models.{cls.method}.predict")
        patch_method(metrics.Metric, "engine_loss", "metrics.score")

        patch_function(engine, "optimize", "engine.optimize")
        patch_function(engine, "evaluate", "engine.evaluate")
        patch_function(engine, "persist_history", "engine.persist_history")
        patch_function(engine, "save_pipeline", "engine.save")
        patch_classmethod(engine.TrainedPipeline, "from_dict", "engine.build_pipeline")
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """Thread pool whose tasks keep the submitting span as parent."""

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(tracer.current(), fn), *args, **kwargs)

        engine.ThreadPoolExecutor = TracedPool

        patch_function(ensemble, "build_stacking", "ensemble.build_stacking")
        patch_function(ensemble, "save_model", "engine.save")
        patch_function(ensemble, "load_model", "engine.load")
        patch_classmethod(ensemble.EnsembleModel, "from_dict", "ensemble.build_model")
        patch_method(ensemble.EnsembleModel, "predict_bundle", "ensemble.predict")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "phase": s.phase,
                    "start": s.start, "end": s.end, **s.attrs,
                }) + "\n")


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [
        ("tabular.load_csv_s", "s", "lower"),
        ("tabular.write_csv_s", "s", "lower"),
        ("space.sample_s", "s", "lower"),
        ("space.samples", "count", "lower"),
    ]
    specs += [(f"preprocess.{s}_s", "s", "lower") for s in PREPROCESS_STAGES]
    specs += [("preprocess.impute_knn_s", "s", "lower"), ("preprocess.serve_s", "s", "lower")]
    specs.append(("balance.resample_s", "s", "lower"))
    specs += [(f"balance.{m}_s", "s", "lower") for m in BALANCE_METHODS]
    specs += [("balance.rows_in", "count", "lower"), ("balance.rows_out", "count", "lower")]
    for family in MODEL_FAMILIES:
        specs += [
            (f"models.{family}.fit_s", "s", "lower"),
            (f"models.{family}.predict_s", "s", "lower"),
            (f"models.{family}.fits", "count", "lower"),
        ]
    specs += [
        ("models.serve_s", "s", "lower"),
        ("metrics.score_s", "s", "lower"),
        ("engine.trials", "count", "higher"),
        ("engine.trials_valid", "count", "higher"),
        ("engine.valid_ratio", "ratio", "higher"),
        ("engine.trial_s", "s", "lower"),
        ("engine.self_s", "s", "lower"),
        ("engine.pool_busy_ratio", "ratio", "higher"),
        ("engine.persist_s", "s", "lower"),
        ("engine.save_s", "s", "lower"),
        ("engine.load_parse_ms", "ms", "lower"),
        ("engine.load_build_ms", "ms", "lower"),
        ("ensemble.build_s", "s", "lower"),
        ("ensemble.serve_s", "s", "lower"),
        ("ensemble.members", "count", "higher"),
    ]
    return specs


def layer_metrics(spans, setup_reps: int, statuses, parallelism: int, members: int) -> dict:
    """Per-layer figures from the spans of one traced run.

    Set-up figures are per set-up repetition; search figures cover the fit
    phase; ``*.serve_s`` figures cover the whole serve phase.
    """
    own = self_times(spans)
    groups: dict[tuple[str, str], list[Span]] = {}
    for s in spans:
        groups.setdefault((s.phase, s.name), []).append(s)

    def matching(prefix, phase):
        for (p, name), group in groups.items():
            if p == phase and name.startswith(prefix):
                yield from group

    def total(prefix, phase, value=lambda s: own[s.id]):
        return sum(value(s) for s in matching(prefix, phase))

    def count(prefix, phase):
        return sum(1 for _ in matching(prefix, phase))

    out = {
        "tabular.load_csv_s": total("tabular.load_csv", "setup") / setup_reps,
        "tabular.write_csv_s": total("tabular.write_csv", "setup") / setup_reps,
        "space.sample_s": total("space.sample", "fit"),
        "space.samples": count("space.sample", "fit"),
    }
    for stage in PREPROCESS_STAGES:
        out[f"preprocess.{stage}_s"] = total(f"preprocess.{stage}.", "fit")
    out["preprocess.impute_knn_s"] = total("preprocess.impute.knn", "fit")
    out["preprocess.serve_s"] = total("preprocess.", "serve")
    out["balance.resample_s"] = total("balance.", "fit")
    for method in BALANCE_METHODS:
        out[f"balance.{method}_s"] = total(f"balance.{method}", "fit")
    out["balance.rows_in"] = total("balance.", "fit", lambda s: s.attrs.get("rows_in", 0))
    out["balance.rows_out"] = total("balance.", "fit", lambda s: s.attrs.get("rows_out", 0))
    for family in MODEL_FAMILIES:
        out[f"models.{family}.fit_s"] = total(f"models.{family}.fit", "fit")
        out[f"models.{family}.predict_s"] = total(f"models.{family}.predict", "fit")
        out[f"models.{family}.fits"] = count(f"models.{family}.fit", "fit")
    out["models.serve_s"] = total("models.", "serve")
    out["metrics.score_s"] = total("metrics.score", "fit")

    valid = statuses.count("valid")
    search_wall = total("engine.optimize", "fit", lambda s: s.duration)
    trial_s = total("engine.evaluate", "fit", lambda s: s.duration)
    loads = count("engine.load", "serve")
    load_total = total("engine.load", "serve", lambda s: s.duration)
    load_parse = total("engine.load", "serve")
    out.update({
        "engine.trials": len(statuses),
        "engine.trials_valid": valid,
        "engine.valid_ratio": valid / len(statuses),
        "engine.trial_s": trial_s,
        "engine.self_s": total("engine.optimize", "fit"),
        "engine.pool_busy_ratio": trial_s / (search_wall * parallelism),
        "engine.persist_s": total("engine.persist_history", "fit"),
        "engine.save_s": total("engine.save", "fit", lambda s: s.duration),
        "engine.load_parse_ms": 1e3 * load_parse / loads,
        "engine.load_build_ms": 1e3 * (load_total - load_parse) / loads,
        "ensemble.build_s": total("ensemble.build_stacking", "fit", lambda s: s.duration),
        "ensemble.serve_s": total("ensemble.predict", "serve"),
        "ensemble.members": members,
    })
    return out
