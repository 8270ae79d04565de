"""Cross-run summaries: distribution descriptors used in figures.

Helpers for the workload-validation figures (Figure 2/3: per-API and
per-tenant cost distributions, mean-vs-CoV scatter) and for aggregating
lag/latency results across schedulers and experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..units import Cost, Scalar
from .latency import percentiles

__all__ = ["CostSummary", "cost_summary", "coefficient_of_variation", "cdf_points"]


@dataclass(frozen=True)
class CostSummary:
    """Distribution descriptor matching the paper's violin whiskers
    (1st and 99th percentiles, Figure 2)."""

    count: int
    mean: Cost
    p1: Cost
    p50: Cost
    p99: Cost
    cov: Scalar  # coefficient of variation = stdev / mean

    def decades_of_spread(self) -> Scalar:
        """log10(p99 / p1): the orders-of-magnitude spread the paper
        quotes ("request costs span four orders of magnitude")."""
        if self.p1 <= 0:
            return float("nan")
        return float(np.log10(self.p99 / self.p1))


def cost_summary(samples: Sequence[Cost]) -> CostSummary:
    """Summarize a cost sample set."""
    array = np.asarray(samples, dtype=float)
    if array.size == 0:
        nan = float("nan")
        return CostSummary(0, nan, nan, nan, nan, nan)
    p1, p50, p99 = percentiles(array, (1, 50, 99))
    mean = float(array.mean())
    cov = float(array.std() / mean) if mean > 0 else float("nan")
    return CostSummary(
        count=int(array.size), mean=mean, p1=p1, p50=p50, p99=p99, cov=cov
    )


def coefficient_of_variation(samples: Sequence[Cost]) -> Scalar:
    """CoV = stdev / mean, the y-axis of the Figure 3 scatter."""
    array = np.asarray(samples, dtype=float)
    if array.size == 0:
        return float("nan")
    mean = array.mean()
    if mean <= 0:
        return float("nan")
    return float(array.std() / mean)


def cdf_points(values: Dict[str, float]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of a per-tenant metric (e.g. sigma(lag), Figure 10):
    returns sorted values and cumulative frequencies, NaNs dropped."""
    array = np.asarray([v for v in values.values() if not np.isnan(v)])
    array = np.sort(array)
    if array.size == 0:
        return array, array
    freq = np.arange(1, array.size + 1) / array.size
    return array, freq
