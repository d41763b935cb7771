"""Exact nearest-neighbour search shared by balancing, imputation and kNN.

Distance rule (``distances``): squared differences summed column by column
in column order, then the square root. Below 8 columns this matches numpy's
row ``sum`` bit for bit.

Tie rule: neighbours are ordered by (distance, lower row index), as a
stable argsort of ``distances`` orders them.

Rounding bound: ``nearest`` screens blocks of about 1 MB with the Gram form
``g = |x|^2 - 2 q.x`` by BLAS, which cancels on rows far from the origin,
and ranks by ``distances`` only the columns with ``g <= t + 2E``. ``t`` is
the k-th smallest of the minima of ``g`` over ``min(n, 2k)`` disjoint
column chunks, so at least k columns have ``g <= t``, and
``E = 2 (w + 3) eps (|q|^2 + max|x|^2 + tiny)`` for ``w`` columns. The Gram
rounding is at most ``(w + 1) eps (max|x|^2 + |q|^2 / 2)``, so a dropped
column is farther than k kept ones by over
``(2w + 8) eps (|q|^2 + max|x|^2)`` in squared distance: more than
``distances`` rounds away, at ``(w + 2) eps / 2`` relative on at most
``2 (|q|^2 + max|x|^2)`` plus ``eps / 2`` for the root. So every neighbour
and every tie at the k-th distance is kept; ``tiny`` covers underflow, and
offset data only keeps more candidates.
"""

from __future__ import annotations

import numpy as np

_BLOCK_FLOATS = 1 << 17
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def distances(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``D[r, j]``, the distance from ``Q[r]`` to ``X[j]``, or to ``X[r, j]``.

    ``X`` is one ``(m, w)`` table shared by every query row, or one table
    per query row, ``(len(Q), m, w)``.
    """
    D = np.zeros(X.shape[:-1] if X.ndim == 3 else (len(Q), len(X)))
    for j in range(Q.shape[1]):
        diff = Q[:, j, None] - X[..., j]
        diff *= diff
        D += diff
    return np.sqrt(D, out=D)


def squared_norms(X: np.ndarray) -> np.ndarray:
    """``|x|^2`` of each row of ``X``, as ``nearest`` computes it."""
    return np.einsum("ij,ij->i", X, X)


def nearest(Q: np.ndarray, X: np.ndarray, k: int, skip=None, sq=None) -> np.ndarray:
    """Per query row, the ``k`` rows of ``X`` ordered by (distance, row index).

    Equal to ``np.argsort(distances(Q, X), axis=1, kind="stable")[:, :k]``.
    ``skip[r]``, when given, is the row of ``X`` that query row ``r`` may
    not pick (the query row itself when ``Q`` is ``X``). ``sq``, when
    given, is ``squared_norms(X)``, kept by a caller that queries ``X`` often.
    """
    n, w = X.shape
    out = np.empty((len(Q), k), dtype=np.intp)
    if sq is None:
        sq = squared_norms(X)
    scale = sq.max() + _TINY
    chunks = min(n, 2 * k)
    step = max(1, _BLOCK_FLOATS // n)
    for start in range(0, len(Q), step):
        q = Q[start : start + step]
        b = len(q)
        g = q @ X.T
        g *= -2.0
        g += sq
        if skip is not None:
            own = (np.arange(b), skip[start : start + step])
            g[own] = np.inf
        # At least k columns lie at or below the k-th smallest chunk minimum.
        mins = np.minimum.reduceat(g, np.arange(chunks) * (n // chunks), axis=1)
        t = np.partition(mins, k - 1, axis=1)[:, k - 1]
        E = 2 * (w + 3) * _EPS * (squared_norms(q) + scale)
        # ~(g > t + 2E) also keeps NaN values, and every column under a NaN bound.
        keep = ~(g > (t + 2 * E)[:, None])
        if skip is not None:
            keep[own] = False
        rows, cols = np.divmod(np.flatnonzero(keep), n)
        counts = np.bincount(rows, minlength=b)
        width = int(counts.max())
        cand = np.zeros((b, width), dtype=np.intp)
        cand[rows, np.arange(len(cols)) - (np.cumsum(counts) - counts)[rows]] = cols
        pad = np.arange(width) >= counts[:, None]
        # Size sub-blocks by the candidate count, which ties can push to n.
        sub = max(1, _BLOCK_FLOATS // (width * max(w, 1)))
        for lo in range(0, b, sub):
            part = slice(lo, lo + sub)
            D = distances(q[part], X[cand[part]])
            D[pad[part]] = np.nan
            order = np.argsort(D, axis=1, kind="stable")[:, :k]
            out[start : start + b][part] = np.take_along_axis(cand[part], order, axis=1)
    return out
