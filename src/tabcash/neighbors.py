"""Exact nearest-neighbour search shared by balancing, imputation and kNN.

Distances are computed in blocks of about ``_BLOCK_FLOATS`` floats (1 MB),
so memory stays flat whatever the table size. Neighbours are ordered by
(distance, lower column index), exactly as a stable argsort orders them.
"""

from __future__ import annotations

import numpy as np

_BLOCK_FLOATS = 1 << 17


def block_rows(n_columns: int) -> int:
    """Rows per distance block against ``n_columns`` reference rows."""
    return max(1, _BLOCK_FLOATS // max(n_columns, 1))


def distance_blocks(Q: np.ndarray, X: np.ndarray):
    """Yield ``(start, D)`` with ``D[r, j]`` the distance from ``Q[start + r]`` to ``X[j]``.

    Squared differences are summed column by column in column order, which
    matches numpy's row ``sum`` bit for bit below 8 columns; identical
    difference vectors give identical distances at every width.
    """
    step = block_rows(len(X))
    XT = np.ascontiguousarray(X.T)
    for start in range(0, len(Q), step):
        block = Q[start : start + step]
        D = np.zeros((len(block), len(X)))
        diff = np.empty_like(D)
        for c in range(Q.shape[1]):
            np.subtract(block[:, c, None], XT[c], out=diff)
            diff *= diff
            D += diff
        yield start, np.sqrt(D, out=D)


def k_smallest(D: np.ndarray, k: int) -> np.ndarray:
    """Per row, the ``k`` smallest columns ordered by (value, column index).

    Equal to ``np.argsort(D, axis=1, kind="stable")[:, :k]``, found by
    partition: every entry below the k-th value, then its lowest-index
    ties. Only rows with more than ``k`` entries at or below the k-th value
    need the tie pass.
    """
    kth = np.partition(D, k - 1, axis=1)[:, k - 1 : k]
    if np.isnan(kth).any():
        return np.argsort(D, axis=1, kind="stable")[:, :k]
    chosen = D <= kth
    tied = np.flatnonzero(np.count_nonzero(chosen, axis=1) > k)
    if tied.size:
        sub, t = D[tied], kth[tied]
        below, ties = sub < t, sub == t
        need = k - np.count_nonzero(below, axis=1)[:, None]
        chosen[tied] = below | (ties & (np.cumsum(ties, axis=1) <= need))
    cols = np.nonzero(chosen)[1].reshape(len(D), k)
    order = np.argsort(np.take_along_axis(D, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)
