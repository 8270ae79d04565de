"""Gini index of instantaneous scheduler fairness.

The paper uses the Gini index (Shi, Sethu & Kanhere [49]) as "an
instantaneous measure of scheduler fairness across all tenants" (§6,
Figure 9a bottom).  At each sampling instant we compute the Gini
coefficient of the per-tenant service delivered during the preceding
interval, normalized by tenant weight: 0 means perfectly equal service,
values toward 1 mean service concentrated on few tenants -- i.e. bursty,
unfair scheduling.

A run's samples are folded in one batched pass (:func:`gini_rows`):
the metrics collector buffers each sample's values and computes every
index when the run's results are read.  :func:`gini_index` is the
one-row case.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from ..units import Scalar

__all__ = ["gini_index", "gini_rows"]


def gini_index(values: Sequence[float]) -> Scalar:
    """Gini coefficient of non-negative, finite values.

    Uses the standard mean-absolute-difference formulation via the
    sorted-rank identity:

        G = (2 * sum_i i*x_(i)) / (n * sum_i x_(i)) - (n + 1) / n

    Returns 0.0 for empty input or all-zero values (an idle interval is
    trivially fair).  Raises :class:`ValueError` for a negative, NaN or
    infinite value.  The index is scale-free, so finite values whose
    sums overflow are divided by their maximum first; that path is only
    taken when the direct identity is not finite, so every other input
    keeps its bits.
    """
    array = np.asarray(values, dtype=float).reshape(-1)
    return gini_rows(array, (0, array.size))[0]


def gini_rows(values: Sequence[float], offsets: Sequence[int]) -> List[Scalar]:
    """:func:`gini_index` of every row ``values[offsets[i]:offsets[i + 1]]``.

    Rows of one length are folded together: one ``sum`` and one
    ``sort`` along the rows of a 2-D block, then one ``np.dot`` per row
    -- the same float operations, in the same order, as one
    :func:`gini_index` call per row, so every index keeps its bits.
    Raises the :class:`ValueError` of the first row, in row order, that
    holds a negative, NaN or infinite value.
    """
    data = np.asarray(values, dtype=float)
    bounds = np.asarray(offsets, dtype=np.intp)
    if (data < 0).any() or not math.isfinite(data.sum()):
        # A bad value, or finite values whose sum overflows.
        bad = np.flatnonzero((data < 0) | ~np.isfinite(data))
        if bad.size:
            row = int(np.searchsorted(bounds, bad[0], side="right")) - 1
            _check_row(data[bounds[row] : bounds[row + 1]])
    starts = bounds[:-1]
    by_length: Dict[int, List[int]] = {}
    for i, n in enumerate(np.diff(bounds).tolist()):
        by_length.setdefault(n, []).append(i)
    out: List[Scalar] = [0.0] * starts.size
    for n, row_list in by_length.items():
        if n == 0:
            continue
        rows = np.array(row_list, dtype=np.intp)
        row_starts = starts[rows]
        block = data[row_starts[:, None] + np.arange(n)]
        totals = block.sum(axis=1).tolist()
        block.sort(axis=1)
        ranks = np.arange(1, n + 1)
        for i, start, total, ordered in zip(
            row_list, row_starts.tolist(), totals, block
        ):
            value = _rank_identity(n, total, ranks, ordered)
            if not math.isfinite(value):
                # A sum that overflowed (numpy warns): the index is
                # scale-free, so rescale the row by its maximum.
                row_values = data[start : start + n]
                rescaled = row_values / row_values.max()
                value = _rank_identity(
                    n, float(rescaled.sum()), ranks, np.sort(rescaled)
                )
            # Clamp float round-off (denormal inputs can push the
            # identity a few ulps outside the range [0, (n-1)/n]).
            out[i] = min(max(value, 0.0), 1.0)
    return out


def _check_row(array: np.ndarray) -> None:
    """Raise the error :func:`gini_index` gives a row with a bad value."""
    if (array < 0).any():
        raise ValueError("gini_index requires non-negative values")
    raise ValueError("gini_index requires finite values (got NaN or inf)")


def _rank_identity(
    n: int, total: float, ranks: np.ndarray, ordered: np.ndarray
) -> float:
    """The sorted-rank identity of a row of ``n`` values summing to
    ``total``, whose sorted values are ``ordered``."""
    if not math.isfinite(total):
        return math.nan
    if total <= 0:
        return 0.0
    return (2.0 * float(np.dot(ranks, ordered))) / (n * total) - (n + 1.0) / n
