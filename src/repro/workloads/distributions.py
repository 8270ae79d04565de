"""Cost distributions for workload models.

Paper §3.1: request costs in Azure Storage span four orders of magnitude,
with per-API shapes ranging from "consistently cheap" to "usually cheap
but occasionally very expensive".  Log-normal mixtures capture all of the
published shapes; each distribution object owns no RNG -- sampling takes
a generator, so one distribution can be shared across seeded streams.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Sequence

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "CostDistribution",
    "FixedCost",
    "NormalCost",
    "LogNormalCost",
    "LogUniformCost",
    "MixtureCost",
]


class CostDistribution(ABC):
    """A positive cost distribution."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> float:
        """Draw one cost (always > 0)."""

    @abstractmethod
    def mean(self) -> float:
        """Analytic mean, used for utilization planning in experiments."""

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` costs at once (workload statistics tools).

        ``FixedCost``, ``NormalCost`` and ``LogNormalCost`` return exactly
        what ``n`` calls of :meth:`sample` on the same generator would.
        ``MixtureCost`` (draws every component pick first) and
        ``LogUniformCost`` (``np.exp`` rounds differently from
        ``math.exp``) do *not*: trace generation, which must stay
        stream-identical to per-request sampling, never calls them.
        """
        return np.array([self.sample(rng) for _ in range(n)])


class FixedCost(CostDistribution):
    """Degenerate distribution: every request costs the same.

    Used for the paper's fixed-cost probe tenants ``t1 .. t7`` whose
    costs are ``2^8, 2^10, ..., 2^20`` (§6.1.2).
    """

    def __init__(self, cost: float) -> None:
        if cost <= 0:
            raise ConfigurationError(f"cost must be positive, got {cost}")
        self.cost = float(cost)

    def sample(self, rng: np.random.Generator) -> float:
        return self.cost

    def mean(self) -> float:
        return self.cost

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.cost)

    def __repr__(self) -> str:
        return f"FixedCost({self.cost:g})"


class NormalCost(CostDistribution):
    """Normal distribution truncated to stay positive.

    The Figure 8 synthetic workload draws small requests from
    ``N(1, 0.1)`` and expensive requests from ``N(1000, 100)``.
    """

    def __init__(self, mu: float, sigma: float, floor: float = 1e-6) -> None:
        if mu <= 0:
            raise ConfigurationError(f"mu must be positive, got {mu}")
        if sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
        self.mu = float(mu)
        self.sigma = float(sigma)
        self.floor = float(floor)

    def sample(self, rng: np.random.Generator) -> float:
        return max(self.floor, rng.normal(self.mu, self.sigma))

    def mean(self) -> float:
        # Truncation is negligible for the mu/sigma ratios used here.
        return self.mu

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.maximum(self.floor, rng.normal(self.mu, self.sigma, size=n))

    def __repr__(self) -> str:
        return f"NormalCost(mu={self.mu:g}, sigma={self.sigma:g})"


class LogNormalCost(CostDistribution):
    """Log-normal parameterized by *median* and *decades of spread*.

    ``sigma_decades`` is the standard deviation of ``log10(cost)``; a
    value of 1.0 means ~two-thirds of samples fall within one decade of
    the median, mirroring how the paper describes spreads ("orders of
    magnitude").  Optional hard bounds clip the tails so a model API
    cannot exceed the published cost range.
    """

    def __init__(
        self,
        median: float,
        sigma_decades: float,
        low: float | None = None,
        high: float | None = None,
    ) -> None:
        if median <= 0:
            raise ConfigurationError(f"median must be positive, got {median}")
        if sigma_decades < 0:
            raise ConfigurationError(
                f"sigma_decades must be >= 0, got {sigma_decades}"
            )
        if low is not None and high is not None and low > high:
            raise ConfigurationError(f"low {low} > high {high}")
        self.median = float(median)
        self.sigma_decades = float(sigma_decades)
        self.low = low
        self.high = high
        self._mu = math.log(self.median)
        self._sigma = self.sigma_decades * math.log(10.0)

    def sample(self, rng: np.random.Generator) -> float:
        # Scalar draws are Python floats already; clipping is inlined
        # because traces call this once per request.
        value = rng.lognormal(self._mu, self._sigma)
        low, high = self.low, self.high
        if low is not None and value < low:
            return low
        if high is not None and value > high:
            return high
        return value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        values = rng.lognormal(self._mu, self._sigma, size=n)
        if self.low is not None:
            values = np.maximum(values, self.low)
        if self.high is not None:
            values = np.minimum(values, self.high)
        return values

    def mean(self) -> float:
        return math.exp(self._mu + self._sigma**2 / 2.0)

    def __repr__(self) -> str:
        return (
            f"LogNormalCost(median={self.median:g}, "
            f"sigma_decades={self.sigma_decades:g})"
        )


class LogUniformCost(CostDistribution):
    """Uniform in log space between ``low`` and ``high``.

    Models "varies widely" APIs whose violins in Figure 2a are flat
    across several decades.
    """

    def __init__(self, low: float, high: float) -> None:
        if low <= 0 or high <= low:
            raise ConfigurationError(f"need 0 < low < high, got {low}, {high}")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(
            math.exp(rng.uniform(math.log(self.low), math.log(self.high)))
        )

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.exp(rng.uniform(math.log(self.low), math.log(self.high), size=n))

    def mean(self) -> float:
        span = math.log(self.high) - math.log(self.low)
        return (self.high - self.low) / span

    def __repr__(self) -> str:
        return f"LogUniformCost({self.low:g}, {self.high:g})"


class MixtureCost(CostDistribution):
    """Weighted mixture of component distributions.

    Captures the "usually cheap but occasionally very expensive" APIs
    (paper Figure 2a, API G) as e.g. 93% cheap log-normal + 7% expensive
    log-normal.
    """

    def __init__(
        self,
        components: Sequence[CostDistribution],
        weights: Sequence[float],
    ) -> None:
        if len(components) != len(weights) or not components:
            raise ConfigurationError("components and weights must match, non-empty")
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise ConfigurationError(f"invalid mixture weights {weights}")
        total = float(sum(weights))
        self.components = list(components)
        self.weights = [w / total for w in weights]
        self._cumulative = np.cumsum(self.weights).tolist()

    def sample(self, rng: np.random.Generator) -> float:
        # bisect_right on the float list == np.searchsorted(side="right").
        index = bisect_right(self._cumulative, rng.random())
        index = min(index, len(self.components) - 1)
        return self.components[index].sample(rng)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        picks = np.searchsorted(self._cumulative, rng.random(n), side="right")
        picks = np.minimum(picks, len(self.components) - 1)
        out = np.empty(n)
        for i, component in enumerate(self.components):
            mask = picks == i
            count = int(mask.sum())
            if count:
                out[mask] = component.sample_many(rng, count)
        return out

    def mean(self) -> float:
        return sum(w * c.mean() for w, c in zip(self.weights, self.components))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{w:.2f}*{c!r}" for w, c in zip(self.weights, self.components)
        )
        return f"MixtureCost({parts})"
