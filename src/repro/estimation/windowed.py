"""Sliding-window mean estimator.

A common alternative to the EMA (paper §3.2 cites moving averages as the
typical approach in Retro, Pulsar, Pisces and friends).  Keeps the last
``window`` observed costs per (tenant, API) and predicts their mean.
Shares the EMA's weakness -- a feedback delay proportional to the window
-- and is included for estimator-comparison ablations.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, Tuple

from ..core.request import Request
from ..errors import ConfigurationError
from ..units import Cost
from .base import CostEstimator

__all__ = ["WindowedMeanEstimator"]


class WindowedMeanEstimator(CostEstimator):
    """Mean of the last ``window`` observed costs per (tenant, API)."""

    name = "windowed-mean"

    def __init__(self, window: int = 16, initial_estimate: Cost = 1.0) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if not 0.0 < initial_estimate < math.inf:
            raise ConfigurationError(
                "initial_estimate must be positive and finite, got "
                f"{initial_estimate}"
            )
        self._window = int(window)
        self._initial: Cost = float(initial_estimate)
        self._samples: Dict[Tuple[str, str], Deque[Cost]] = {}
        self._sums: Dict[Tuple[str, str], Cost] = {}

    @property
    def window(self) -> int:
        return self._window

    def estimate(self, request: Request) -> Cost:
        samples = self._samples.get(request.key)
        if not samples:
            return self._initial
        return self._sums[request.key] / len(samples)

    def observe(self, request: Request, actual_cost: Cost) -> None:
        if actual_cost < 0:
            raise ConfigurationError(f"actual_cost must be >= 0, got {actual_cost}")
        key = request.key
        samples = self._samples.get(key)
        if samples is None:
            samples = deque(maxlen=self._window)
            self._samples[key] = samples
            self._sums[key] = 0.0
        if len(samples) == self._window:
            self._sums[key] -= samples[0]
        samples.append(actual_cost)
        self._sums[key] += actual_cost

    def reset(self) -> None:
        self._samples.clear()
        self._sums.clear()

    def __repr__(self) -> str:
        return f"WindowedMeanEstimator(window={self._window})"
