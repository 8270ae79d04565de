"""Service curves and derived series (service rate, service lag).

Definitions follow paper §6:

* **service received** ``W_f(0, t)`` -- cumulative cost units delivered
  to tenant ``f`` (running requests count partially);
* **service rate** -- work done measured in fixed intervals (the paper
  uses 100 ms);
* **service lag** -- the deviation of actual service from the ideal GPS
  share.  We report it sign-convention "ahead is positive"
  (``actual - GPS``), matching the paper's plots where WFQ keeps small
  tenants seconds *ahead* of their fair share; converted to seconds by
  dividing by the tenant's reference fair-share rate;
* **service lag variation** ``sigma(lag)`` -- the standard deviation of
  the lag series, the paper's headline burstiness metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..units import Cost, Rate

__all__ = ["ServiceSeries", "lag_std"]


@dataclass
class ServiceSeries:
    """Sampled cumulative service of one tenant under one scheduler.

    All arrays share the index of ``times``.
    """

    tenant_id: str
    times: np.ndarray
    actual: np.ndarray  # W_sched(0, t), cost units
    gps: np.ndarray     # W_GPS(0, t), cost units
    #: Cumulative service already delivered when the first sample was
    #: taken (the last pre-warmup sample).  0.0 when the series starts
    #: at t=0; without it, ``service_rate``'s first post-warmup entry
    #: would read as the entire pre-warmup cumulative service -- a
    #: spurious spike in the Figure 8a/9a/11a series.
    baseline: Cost = 0.0

    def service_rate(self) -> np.ndarray:
        """Work done per sampling interval (cost units per interval),
        the quantity plotted in Figures 8a/9a/11a."""
        return np.diff(self.actual, prepend=self.baseline)

    def lag_units(self) -> np.ndarray:
        """Service lag in cost units; positive = ahead of GPS."""
        return self.actual - self.gps

    def lag_seconds(self, reference_rate: Rate) -> np.ndarray:
        """Service lag in seconds of fair-share service.

        ``reference_rate`` is the tenant's nominal GPS rate in cost
        units per second (``capacity * phi_f / sum(phi)`` for the
        experiment's steady-state tenant population).
        """
        _check_reference_rate(reference_rate)
        return self.lag_units() / reference_rate

    def lag_sigma(self, reference_rate: Optional[Rate] = None) -> float:
        """Standard deviation of service lag -- the burstiness metric.

        In seconds when ``reference_rate`` is given, else in cost units.
        """
        return lag_std(self.lag_units(), reference_rate)


def _check_reference_rate(reference_rate: Rate) -> None:
    """Reject a fair-share rate that cannot convert cost units to
    seconds: zero, negative, NaN or infinite."""
    if not (math.isfinite(reference_rate) and reference_rate > 0):
        raise ValueError(f"reference_rate must be positive, got {reference_rate}")


def lag_std(lag: np.ndarray, reference_rate: Optional[Rate] = None) -> float:
    """sigma of a lag series (cost units), in seconds of fair-share
    service when ``reference_rate`` is given; 0.0 for an empty series."""
    if reference_rate is not None:
        _check_reference_rate(reference_rate)
        lag = lag / reference_rate
    if lag.size == 0:
        return 0.0
    return float(np.std(lag))
