"""Class-imbalance samplers gated by an imbalance-ratio threshold.

Applied to encoded, imputed training rows only, never to validation or
test rows. The majority class is the largest one (ties toward the lowest
label); every other class pools into the minority side. When the observed
ratio is at or below the sampler's threshold, every method is the
identity. Regression tasks skip this stage entirely.

Methods: random duplication over-sampling, random under-sampling,
interpolation-based synthetic over-sampling, and the three kNN cleaning
rules (mutual-pair removal, edited neighbors, condensed neighbors). The
cleaning rules use the threshold only as a gate, not as a target ratio.

Every neighbour rule here finds neighbours with ``neighbors.py``: exact
Euclidean distances whose squared differences are summed column by column
in column order, with distance ties going to the lower row index.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .base import Component, as_float_matrix, check_no_missing
from .errors import BalancingError, ConfigurationError
from .neighbors import distances, nearest

logger = logging.getLogger(__name__)

BALANCE_METHODS = ("none", "random_over", "random_under", "smote", "tomek", "enn", "cnn")


@dataclass(frozen=True)
class ImbalanceProfile:
    majority_class: int
    majority_count: int
    minority_count: int

    @property
    def ratio(self) -> float:
        return self.majority_count / self.minority_count


def profile(y) -> ImbalanceProfile:
    """Count the majority class against the pooled remaining classes."""
    y = np.asarray(y, dtype=int)
    if y.size == 0:
        raise BalancingError("cannot profile an empty label vector")
    labels, counts = np.unique(y, return_counts=True)
    major_pos = int(np.argmax(counts))
    major = int(labels[major_pos])
    major_count = int(counts[major_pos])
    minor_count = int(y.size - major_count)
    if minor_count == 0:
        raise BalancingError("single-class labels have no minority to balance")
    return ImbalanceProfile(major, major_count, minor_count)


class Balancer(Component):
    """Resampler with a ratio threshold and per-call seed.

    ``ratio`` is both the imbalance gate and, for the ratio-targeting
    methods, the post-resampling target majority/minority ratio.
    """

    def __init__(self, method: str = "none", ratio: float = 1.0, k: int = 5):
        if method not in BALANCE_METHODS:
            raise ConfigurationError(f"unknown balancer {method!r}")
        if ratio < 1.0:
            raise ConfigurationError("ratio threshold must be at least 1")
        if k < 1:
            raise ConfigurationError("neighbor count must be at least 1")
        self.method = method
        self.ratio = ratio
        self.k = k

    def fit_resample(self, X, y, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        X = as_float_matrix(X)
        check_no_missing(X)
        y = np.asarray(y, dtype=int)
        if len(y) != len(X):
            raise ConfigurationError("X and y row counts differ")
        if self.method == "none":
            return X, y
        prof = profile(y)
        if prof.ratio <= self.ratio:
            return X, y
        fn = {
            "random_over": self._random_over,
            "random_under": self._random_under,
            "smote": self._smote,
            "tomek": self._tomek,
            "enn": self._enn,
            "cnn": self._cnn,
        }[self.method]
        return fn(X, y, prof, np.random.default_rng(seed))

    def _minority_target(self, prof: ImbalanceProfile) -> int:
        return math.ceil(prof.majority_count / self.ratio)

    def _random_over(self, X, y, prof, rng):
        minority_idx = np.flatnonzero(y != prof.majority_class)
        if minority_idx.size == 0:
            raise BalancingError("empty minority")
        extra = self._minority_target(prof) - prof.minority_count
        picks = rng.integers(0, minority_idx.size, extra)
        add = minority_idx[picks]
        return np.vstack([X, X[add]]), np.concatenate([y, y[add]])

    def _random_under(self, X, y, prof, rng):
        keep_major = math.floor(self.ratio * prof.minority_count)
        if keep_major < 1:
            raise BalancingError("under-sampling target is below one majority row")
        majority_idx = np.flatnonzero(y == prof.majority_class)
        kept = rng.choice(majority_idx, size=keep_major, replace=False)
        keep = np.sort(np.concatenate([np.flatnonzero(y != prof.majority_class), kept]))
        return X[keep], y[keep]

    def _smote(self, X, y, prof, rng):
        minority_idx = np.flatnonzero(y != prof.majority_class)
        if minority_idx.size < 2:
            logger.warning(
                "smote needs at least 2 minority rows, falling back to random_over"
            )
            return self._random_over(X, y, prof, rng)
        extra = self._minority_target(prof) - prof.minority_count
        Xm = X[minority_idx]
        k = min(self.k, len(Xm) - 1)
        neighbor_ids = nearest(Xm, Xm, k, skip=np.arange(len(Xm)))
        synth = np.empty((extra, X.shape[1]), dtype=float)
        labels = np.empty(extra, dtype=int)
        for s in range(extra):
            base = int(rng.integers(0, len(Xm)))
            nn = int(neighbor_ids[base, rng.integers(0, k)])
            u = rng.uniform()
            synth[s] = Xm[base] + u * (Xm[nn] - Xm[base])
            labels[s] = y[minority_idx[base]]
        return np.vstack([X, synth]), np.concatenate([y, labels])

    def _tomek(self, X, y, prof, rng):
        majority = y == prof.majority_class
        rows = np.arange(len(X))
        nn = nearest(X, X, 1, skip=rows)[:, 0]
        drop = majority & ~majority[nn] & (nn[nn] == rows)
        return X[~drop], y[~drop]

    def _enn(self, X, y, prof, rng):
        majority_idx = np.flatnonzero(y == prof.majority_class)
        other_labels = np.unique(y[y != prof.majority_class])
        k = min(self.k, len(X) - 1)
        labels = y[nearest(X[majority_idx], X, k, skip=majority_idx)]
        own = (labels == prof.majority_class).sum(axis=1)
        others = (labels[:, :, None] == other_labels).sum(axis=1).max(axis=1)
        drop = np.zeros(len(X), dtype=bool)
        drop[majority_idx] = others > own
        return X[~drop], y[~drop]

    def _cnn(self, X, y, prof, rng):
        majority_idx = np.flatnonzero(y == prof.majority_class)
        in_bank = y != prof.majority_class
        in_bank[int(rng.choice(majority_idx))] = True
        order = rng.permutation(len(X))
        # Every row's nearest bank row, ties to the lower index.
        bank_idx = np.flatnonzero(in_bank)
        nn = bank_idx[nearest(X, X[bank_idx], 1)[:, 0]]
        nn_d = distances(X, X[nn, None])[:, 0]
        changed = True
        while changed:
            changed = False
            for i in order:
                if in_bank[i] or y[nn[i]] == y[i]:
                    continue
                in_bank[i] = changed = True
                d = distances(X[i : i + 1], X)[0]
                closer = (d < nn_d) | ((d == nn_d) & (i < nn))
                nn_d[closer] = d[closer]
                nn[closer] = i
        return X[in_bank], y[in_bank]
