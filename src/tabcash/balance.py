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

SMOTE draws its synthetic rows in three bulk vectors, base minority rows,
then neighbour slots, then interpolation steps, as imbalanced-learn does.
CNN (Hart's condensed neighbours) makes one pass, since a second one never
adds a row: each majority row's nearest bank row comes from ``nearest``,
and each row that joins the bank ends the later rows it lies nearer to,
found by ``within`` against the bank of the candidate rows, built once.

Tomek and ENN read a table's self-neighbour graph from ``self_nearest``.
Every trial of a search balances the same training rows, so ``optimize``
keeps each table's graph (one self-join per table and depth) for the
length of the search only: outside it nothing is kept, and the graphs never
outlive the search into serving.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .base import Component, as_float_matrix, check_no_missing
from .errors import BalancingError, ConfigurationError
from .neighbors import bank, distances, nearest, self_nearest, within

logger = logging.getLogger(__name__)

# Live rows that CNN settles on one pairwise matrix before screening the rest.
_CNN_BLOCK = 64

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
        # Three bulk draws, base rows, then neighbour slots, then steps.
        base = rng.integers(0, len(Xm), extra)
        slot = rng.integers(0, k, extra)
        u = rng.uniform(size=(extra, 1))
        start = Xm[base]
        synth = start + u * (Xm[neighbor_ids[base, slot]] - start)
        return np.vstack([X, synth]), np.concatenate([y, y[minority_idx[base]]])

    def _tomek(self, X, y, prof, rng):
        majority = y == prof.majority_class
        nn = self_nearest(X, 1)[:, 0]
        drop = majority & ~majority[nn] & (nn[nn] == np.arange(len(X)))
        return X[~drop], y[~drop]

    def _enn(self, X, y, prof, rng):
        majority_idx = np.flatnonzero(y == prof.majority_class)
        other_labels = np.unique(y[y != prof.majority_class])
        k = min(self.k, len(X) - 1)
        labels = y[self_nearest(X, k, majority_idx)]
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
        # Only majority rows start outside the bank and only they join it, so
        # a row whose nearest bank row is a majority row keeps one: Hart's
        # second pass never adds a row. A row is live while its nearest bank
        # row (ties to the lower index) is a minority row.
        bank_idx = np.flatnonzero(in_bank)
        rows = order[~in_bank[order]]
        nn = bank_idx[nearest(X[rows], X[bank_idx], 1)[:, 0]]
        live = y[nn] != prof.majority_class
        rows, nn = rows[live], nn[live]
        Xr = X[rows]
        nn_d = distances(Xr, X[nn, None])[:, 0]
        screen = bank(Xr)
        # Walked in order, a live row joins the bank and ends every later
        # live row that lies nearer to it, by (distance, row index), than to
        # its nearest bank row. A block of live rows is settled on its own
        # pairwise distances, and its joined rows end later rows by ``within``.
        alive = np.ones(len(rows), dtype=bool)
        start = 0
        while (blk := start + np.flatnonzero(alive[start:])[:_CNN_BLOCK]).size:
            start = blk[-1] + 1
            d = distances(Xr[blk], Xr[blk])
            ends = (d < nn_d[blk]) | ((d == nn_d[blk]) & (rows[blk, None] < nn[blk]))
            spared = ~np.triu(ends, 1)
            joins = np.ones(len(blk), dtype=bool)
            for a in range(len(blk)):
                if joins[a]:
                    joins &= spared[a]
            joined = blk[joins]
            in_bank[rows[joined]] = True
            alive[blk] = False
            later = start + np.flatnonzero(alive[start:])
            q, j, d = within(Xr[joined], Xr[later], nn_d[later], bank=screen[:, later])
            ended = (d < nn_d[later[j]]) | (rows[joined[q]] < nn[later[j]])
            alive[later[j[ended]]] = False
        return X[in_bank], y[in_bank]
