"""Exact nearest-neighbour search shared by balancing, imputation and kNN.

Distance rule (``distances``): squared differences summed column by column
in column order, then the square root. Below 8 columns this matches numpy's
row ``sum`` bit for bit.

Tie rule: neighbours are ordered by (distance, lower row index), as a
stable argsort of ``distances`` orders them.

Rounding bound: ``nearest`` screens blocks of about 1 MB with one BLAS
product per block, ``g = [-2q, 1] @ bank`` against ``bank = [X^T; |x|^2]``,
which gives ``|x|^2 - 2 q.x`` and cancels on rows far from the origin, and
it ranks by ``distances`` only the columns with ``g <= t + 2E``. ``t`` is
the k-th smallest of the minima of ``g`` over ``min(n, 2k)`` disjoint
column chunks, so at least k columns have ``g <= t``, and
``E = 2 (2w + 4) eps (|q|^2 + max|x|^2 + tiny)`` for ``w`` columns.
``-2q`` is exact. A product of ``w + 1`` terms, summed in any order and
with or without FMA, rounds by at most ``(w + 1) eps / 2`` of
``2 |q||x| + |x|^2 <= |q|^2 + 2 max|x|^2``, and ``|x|^2`` itself by
``w eps / 2`` of ``max|x|^2``, so ``g`` is off by at most
``(3w + 2) eps / 2 (|q|^2 + max|x|^2)``. A dropped column is then farther
than k kept ones by over ``(5w + 14) eps (|q|^2 + max|x|^2)`` in squared
distance: more than ``distances`` rounds away, at ``(w + 2) eps / 2``
relative on at most ``2 (|q|^2 + max|x|^2)`` plus ``eps / 2`` for the
root. So every neighbour and every tie at the k-th distance is kept;
``tiny`` covers underflow, and offset data only keeps more candidates.

``within`` screens the same ``g`` against a radius ``r`` per row of ``X``,
keeping ``g <= r^2 - |q|^2 + 2E``, and tests only those pairs with
``distances``. A pair that ``distances`` puts at most ``r`` apart is at
most ``r^2 (1 + (w + 4) eps / 2)`` apart squared, and never more than
``2 (|q|^2 + max|x|^2)``, so it lies over ``r^2`` by less than
``(w + 4) eps (|q|^2 + max|x|^2)``. With the error of ``g`` and a few
``eps`` for rounding ``r^2``, ``|q|^2`` and the bound, that stays under 2E.

``self_nearest`` is ``nearest`` of a table's rows against the table itself.
Inside ``shared_graphs`` it keeps the graph of every row, one per table,
keyed by the table's shape, dtype and a digest of its bytes. It answers a
shallower request, or a subset of rows, from that graph: exact, since each
row's result is a stable sort's prefix and does not depend on the other
query rows. A deeper request recomputes the graph and replaces it.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager

import numpy as np

_BLOCK_FLOATS = 1 << 17
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def distances(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``D[r, j]``, the distance from ``Q[r]`` to ``X[j]``, or to ``X[r, j]``.

    ``X`` is one ``(m, w)`` table shared by every query row, or one table
    per query row, ``(len(Q), m, w)``.
    """
    shape = X.shape[:-1] if X.ndim == 3 else (len(Q), len(X))
    return _root_sum(Q, (X[..., j] for j in range(Q.shape[1])), shape)


def _root_sum(Q: np.ndarray, columns, shape) -> np.ndarray:
    """The root of ``(Q[:, j, None] - column j)^2`` summed in column order."""
    D = np.zeros(shape)
    diff = np.empty(shape)
    for j, column in enumerate(columns):
        np.subtract(Q[:, j, None], column, out=diff)
        diff *= diff
        D += diff
    return np.sqrt(D, out=D)


def bank(X: np.ndarray) -> np.ndarray:
    """``[X^T; |x|^2]``, the ``(w + 1, n)`` matrix that ``nearest`` and ``within`` screen."""
    return np.vstack([X.T, np.einsum("ij,ij->i", X, X)])


_bank = bank  # ``nearest``'s argument of the same name hides it


def nearest(Q: np.ndarray, X: np.ndarray, k: int, skip=None, bank=None) -> np.ndarray:
    """Per query row, the ``k`` rows of ``X`` ordered by (distance, row index).

    Equal to ``np.argsort(distances(Q, X), axis=1, kind="stable")[:, :k]``.
    ``skip[r]``, when given, is the row of ``X`` that query row ``r`` may
    not pick (the query row itself when ``Q`` is ``X``). ``bank``, when
    given, is ``bank(X)``, kept by a caller that queries ``X`` often.
    """
    if bank is None:
        bank = _bank(X)
    w, n = bank.shape[0] - 1, bank.shape[1]
    out = np.empty((len(Q), k), dtype=np.intp)
    scale = bank[w].max() + _TINY
    chunks = min(n, 2 * k)
    offsets = np.arange(chunks) * (n // chunks)
    slack = 4 * (2 * w + 4) * _EPS  # 2E over |q|^2 + max|x|^2 + tiny
    step = max(1, min(len(Q), _BLOCK_FLOATS // n))
    # One buffer each for [-2q, 1], g and the kept mask, reused by every block.
    lhs = np.ones((step, w + 1))
    g_rows = np.empty((step, n))
    keep_rows = np.empty((step, n), dtype=bool)
    for start in range(0, len(Q), step):
        q = Q[start : start + step]
        b = len(q)
        np.multiply(q, -2.0, out=lhs[:b, :w])
        g = np.matmul(lhs[:b], bank, out=g_rows[:b])
        if skip is not None:
            own = (np.arange(b), skip[start : start + step])
            g[own] = np.inf
        # At least k columns lie at or below the k-th smallest chunk minimum.
        mins = np.minimum.reduceat(g, offsets, axis=1)
        t = np.partition(mins, k - 1, axis=1)[:, k - 1]
        bound = t + slack * (np.einsum("ij,ij->i", q, q) + scale)
        # not (g > t + 2E) also keeps NaN values, and every column under a NaN bound.
        keep = np.greater(g, bound[:, None], out=keep_rows[:b])
        np.logical_not(keep, out=keep)
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
            c = cand[part]
            D = _root_sum(q[part], (row[c] for row in bank[:w]), c.shape)
            D[pad[part]] = np.nan
            order = np.argsort(D, axis=1, kind="stable")[:, :k]
            out[start : start + b][part] = c[np.arange(len(c))[:, None], order]
    return out


def within(Q: np.ndarray, X: np.ndarray, radius: np.ndarray, bank=None):
    """The pairs ``(r, j)`` with ``distances(Q, X)[r, j] <= radius[j]``.

    Returns the query rows, the rows of ``X`` and the exact distances of
    those pairs, ordered by query row, then row of ``X``. ``bank``, when
    given, is ``bank(X)``.
    """
    if bank is None:
        bank = _bank(X)
    w, n = bank.shape[0] - 1, bank.shape[1]
    found = [(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))]
    scale = bank[w].max(initial=0.0) + _TINY
    slack = 4 * (2 * w + 4) * _EPS  # 2E over |q|^2 + max|x|^2 + tiny, as in ``nearest``
    reach = radius * radius
    step = max(1, min(len(Q), _BLOCK_FLOATS // max(n, 1)))
    lhs = np.ones((step, w + 1))
    for start in range(0, len(Q), step):
        q = Q[start : start + step]
        b = len(q)
        np.multiply(q, -2.0, out=lhs[:b, :w])
        g = lhs[:b] @ bank
        g -= reach
        qq = np.einsum("ij,ij->i", q, q)
        # not (g > r^2 - |q|^2 + 2E) also keeps NaN values.
        rows, cols = np.nonzero(~(g > (slack * (qq + scale) - qq)[:, None]))
        d = _root_sum(q[rows], (X[cols, j, None] for j in range(w)), (len(rows), 1))[:, 0]
        hit = d <= radius[cols]
        found.append((rows[hit] + start, cols[hit], d[hit]))
    return tuple(np.concatenate(part) for part in zip(*found))


_graphs: dict = {}
_scopes = 0
_scopes_lock = threading.Lock()


@contextmanager
def shared_graphs():
    """Keep each table's ``self_nearest`` graph until the outermost scope closes.

    Threads share the graphs; a race can only compute a graph twice.
    """
    global _scopes
    with _scopes_lock:
        _scopes += 1
    try:
        yield
    finally:
        with _scopes_lock:
            _scopes -= 1
            if not _scopes:
                _graphs.clear()


def self_nearest(X: np.ndarray, k: int, rows=None) -> np.ndarray:
    """``nearest(X[rows], X, k, skip=rows)``, the ``k`` nearest other rows.

    ``rows`` defaults to every row.
    """
    rows = np.arange(len(X)) if rows is None else rows
    if not _scopes:
        return nearest(X[rows], X, k, skip=rows)
    X = np.ascontiguousarray(X)
    key = (X.shape, X.dtype.str, hashlib.blake2b(X).digest())
    graph = _graphs.get(key)
    if graph is None or graph.shape[1] < k:
        graph = nearest(X, X, k, skip=np.arange(len(X)))
        graph.flags.writeable = False
        _graphs[key] = graph
    return graph[rows, :k]
