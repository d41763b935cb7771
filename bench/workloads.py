"""The three benchmark workloads and their set-up: data, CSV round trip, space.

``--seed`` draws the data and the validation split. The search seed is
fixed per workload, so every data seed runs the same list of sampled
pipelines and the cost of a run does not swing with which model families
the sampler happened to draw. On ``messy-kfold-p2`` the search seed is 1:
its fifth and sixth best trials sit far apart on every data seed tried,
so the same five pipelines make up the served ensemble. Each budget's time cap is far above any run,
so neither it nor the per-trial timeout derived from it (ten times the
per-trial share) can bind and make the trial count depend on machine speed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tabcash import space, synthdata, tabular

TIME_BUDGET_S = 1e6
TEST_FRACTION = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n_rows: int
    n_numeric: int
    objective: str
    max_evals: int
    validation: str
    parallelism: int
    n_categorical: int = 0
    missing_fraction: float = 0.0
    imbalance_ratio: float = 9.0
    noise_scale: float = 1.0
    model_menu: tuple | None = None
    members: int = 0  # 0 serves the single best pipeline
    search_seed: int = 0
    # Rows per batch prediction: enough that per-call overhead is a few
    # percent of the call.
    batch_rows: int = 10000
    # Poisson workloads: allowed ratio of the served model's test deviance
    # to the deviance of the true rates. Blanked cells cost the messy
    # workload information no model can recover.
    deviance_factor: float = 1.1

    @property
    def task(self) -> str:
        return tabular.REGRESSION if self.kind == "poisson" else tabular.BINARY

    @property
    def coefficients(self) -> tuple:
        return tuple(0.3 * (-1.0) ** j for j in range(self.n_numeric))

    def generator(self, seed: int, missing_fraction: float | None = None):
        if missing_fraction is None:
            missing_fraction = self.missing_fraction
        return synthdata.GeneratorSpec(
            kind=self.kind,
            n_rows=self.n_rows,
            n_features=self.n_numeric,
            coefficients=self.coefficients if self.kind == "poisson" else None,
            imbalance_ratio=self.imbalance_ratio,
            noise_scale=self.noise_scale,
            missing_fraction=missing_fraction,
            n_categorical=self.n_categorical,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="poisson-holdout",
            kind="poisson",
            n_rows=5000,
            n_numeric=8,
            objective="poisson_deviance",
            max_evals=32,
            validation="holdout",
            parallelism=1,
        ),
        Workload(
            name="imbalanced-holdout",
            kind="imbalanced_binary",
            n_rows=5000,
            n_numeric=6,
            imbalance_ratio=19.0,
            noise_scale=1.5,
            objective="auc",
            max_evals=32,
            validation="holdout",
            parallelism=1,
        ),
        Workload(
            name="messy-kfold-p2",
            kind="poisson",
            n_rows=3000,
            n_numeric=6,
            n_categorical=2,
            missing_fraction=0.1,
            objective="poisson_deviance",
            max_evals=16,
            validation="kfold",
            parallelism=2,
            model_menu=("cart", "random_forest", "gbt", "knn"),
            members=5,
            search_seed=1,
            batch_rows=1000,
            deviance_factor=1.5,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """A much smaller version of a workload, for the benchmark's own tests."""
    return replace(workload, n_rows=300, max_evals=4)


@dataclass
class Inputs:
    train: tabular.Dataset
    test: tabular.Dataset
    search_space: space.SearchSpace
    test_rows: np.ndarray


def setup(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate the data, round-trip it through CSV, and build the space."""
    data = synthdata.generate(workload.generator(seed))
    split = tabular.split_dataset(data, TEST_FRACTION, 0.0, seed)
    train_csv, test_csv = workdir / "train.csv", workdir / "test.csv"
    tabular.write_csv(data.take_rows(split.train_indices), train_csv)
    tabular.write_csv(data.take_rows(split.test_indices), test_csv)
    train = tabular.load_csv(train_csv, "response", task=workload.task)
    test = tabular.load_csv(test_csv, "response", task=workload.task)
    search_space = space.default_space(train.task, y=train.y, n_features=train.n_features)
    if workload.model_menu is not None:
        search_space = space.apply_overrides(
            search_space, {"model": {"methods": list(workload.model_menu)}}
        )
    return Inputs(train, test, search_space, split.test_indices)


def complete_numeric(workload: Workload, seed: int, test_rows) -> tuple[np.ndarray, np.ndarray]:
    """The test rows' numeric features before any cell was blanked, and counts.

    The generator blanks cells last, so the same spec without missing
    cells yields the same numbers and counts.
    """
    data = synthdata.generate(workload.generator(seed, missing_fraction=0.0))
    return np.asarray(data.X[test_rows, : workload.n_numeric], dtype=float), data.y[test_rows]
