"""Latency statistics.

The paper reports per-tenant latency distributions with 1st/99th
percentile whiskers (Figure 12) and focuses on the 99th percentile for
the speedup suite (Figure 13).  This module provides the percentile and
distribution helpers over raw per-request latency samples, and the
package's one percentile definition, :func:`percentiles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..units import Duration, Scalar

__all__ = [
    "LatencyStats",
    "latency_stats",
    "speedup",
    "percentile_table",
    "percentiles",
    "quantiles",
]


def _interpolate(ordered: np.ndarray, fractions: Sequence[float]) -> List[float]:
    """The quantiles at ``fractions`` of ``ordered`` (a sorted float64
    array, so a NaN sits last), with the float operations of numpy's
    default ``linear`` method (Hyndman & Fan's method 7), in its order,
    on Python floats.

    The virtual index is ``v = (n - 1) * q``; below the last element
    the result interpolates between ``a = ordered[floor(v)]`` and the
    next element ``b`` by ``t = v - floor(v)`` as ``a + (b - a) * t``,
    or as ``b - (b - a) * (1 - t)`` when ``t >= 0.5``.  At or beyond
    the last index both ends are the last element and ``t = v + 1``,
    as numpy computes it.  A NaN makes every quantile NaN.
    """
    last = float(ordered[-1])
    if last != last:
        return [last] * len(fractions)
    top = len(ordered) - 1
    out = []
    for q in fractions:
        v = top * q
        if v >= top:
            a = b = last
            t = v + 1.0
        else:
            lower = math.floor(v)
            a = float(ordered[lower])
            b = float(ordered[lower + 1])
            t = v - lower
        span = b - a
        out.append(b - span * (1 - t) if t >= 0.5 else a + span * t)
    return out


def quantiles(samples: Sequence[float], qs: Sequence[Scalar]) -> List[float]:
    """numpy's ``quantile(samples, qs)`` as floats, bit for bit, for a
    non-empty float64 sample; a ``q`` outside ``[0, 1]`` (or NaN) raises
    numpy's ``ValueError``.  Equal values are interchangeable, except
    that the sign of a zero picked from a mix of ``0.0`` and ``-0.0``
    is not specified."""
    fractions = _checked([float(q) for q in qs], "Quantiles must be in the range [0, 1]")
    return _interpolate(_ascending(samples), fractions)


def percentiles(samples: Sequence[float], ps: Sequence[Scalar]) -> List[float]:
    """numpy's ``percentile(samples, ps)`` as floats, bit for bit: the
    :func:`quantiles` at ``np.true_divide(p, 100)``, checked as numpy
    checks them."""
    return _interpolate(_ascending(samples), _percent_fractions(ps))


def _ascending(samples: Sequence[float]) -> np.ndarray:
    return np.sort(np.asarray(samples, dtype=float))


def _percent_fractions(ps: Sequence[Scalar]) -> List[float]:
    return _checked(
        [float(p) / 100 for p in ps], "Percentiles must be in the range [0, 100]"
    )


def _checked(fractions: List[float], message: str) -> List[float]:
    if not all(0.0 <= q <= 1.0 for q in fractions):
        raise ValueError(message)
    return fractions


#: The latency whiskers and median of the paper's figures, as fractions.
_WHISKERS = _percent_fractions((1, 50, 99))


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample set (seconds)."""

    count: int
    mean: Duration
    p1: Duration
    p50: Duration
    p99: Duration
    maximum: Duration

    @property
    def empty(self) -> bool:
        return self.count == 0


_EMPTY = LatencyStats(count=0, mean=float("nan"), p1=float("nan"),
                      p50=float("nan"), p99=float("nan"), maximum=float("nan"))


def latency_stats(samples: Sequence[Duration]) -> LatencyStats:
    """Compute the paper's latency summary for one tenant.

    One sort gives the percentiles and the maximum; the mean is
    ``np.mean`` of the completion-order samples, so it keeps the bits
    of numpy's pairwise sum."""
    if len(samples) == 0:
        return _EMPTY
    array = np.asarray(samples, dtype=float)
    ordered = _ascending(array)
    p1, p50, p99 = _interpolate(ordered, _WHISKERS)
    return LatencyStats(
        count=len(ordered),
        mean=float(array.mean()),
        p1=p1,
        p50=p50,
        p99=p99,
        maximum=float(ordered[-1]),
    )


def speedup(baseline: Duration, improved: Duration) -> Scalar:
    """The paper's speedup convention (§6.2.2): how much faster the
    improved scheduler's latency is relative to the baseline's.

    Expressed as a positive factor when improved < baseline and a
    negative factor when improved > baseline (Figure 13 plots "-100x ..
    1000x" with a sign change at parity), matching e.g. "T1's 99th
    percentile latency was 3.3ms under 2DFQ^E and 4.5ms under WFQ^E,
    giving 2DFQ^E a speedup of 1.4x".
    """
    if improved <= 0 or baseline <= 0 or np.isnan(improved) or np.isnan(baseline):
        return float("nan")
    ratio = baseline / improved
    if ratio >= 1.0:
        return ratio
    return -1.0 / ratio


def percentile_table(
    latencies: Dict[str, Sequence[Duration]], percentile: Scalar = 99.0
) -> Dict[str, Duration]:
    """Per-tenant latency percentile, NaN for tenants with no samples."""
    out: Dict[str, Duration] = {}
    for tenant, samples in latencies.items():
        if len(samples) == 0:
            out[tenant] = float("nan")
        else:
            out[tenant] = percentiles(samples, (percentile,))[0]
    return out
