"""Gini index of instantaneous scheduler fairness.

The paper uses the Gini index (Shi, Sethu & Kanhere [49]) as "an
instantaneous measure of scheduler fairness across all tenants" (§6,
Figure 9a bottom).  At each sampling instant we compute the Gini
coefficient of the per-tenant service delivered during the preceding
interval, normalized by tenant weight: 0 means perfectly equal service,
values toward 1 mean service concentrated on few tenants -- i.e. bursty,
unfair scheduling.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..units import Scalar

__all__ = ["gini_index"]


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
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        return 0.0
    if (array < 0).any():
        raise ValueError("gini_index requires non-negative values")
    value = _rank_identity(array)
    if not math.isfinite(value):
        # NaN or inf in the input, or a sum that overflowed (numpy warns).
        if not np.all(np.isfinite(array)):
            raise ValueError("gini_index requires finite values (got NaN or inf)")
        value = _rank_identity(array / array.max())
    # Clamp float round-off (denormal inputs can push the identity a few
    # ulps outside the mathematical range [0, (n-1)/n]).
    return float(min(max(value, 0.0), 1.0))


def _rank_identity(array: np.ndarray) -> float:
    total = array.sum()
    if not math.isfinite(total):
        return math.nan
    if total <= 0:
        return 0.0
    array = np.sort(array)
    n = array.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.dot(ranks, array)) / (n * total) - (n + 1.0) / n)
