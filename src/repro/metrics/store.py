"""The per-run metrics store (DESIGN.md §13).

Every per-run statistic lives in one :class:`MetricsPartial`, and every
part of it keeps every value:

* latency, per tenant -- a list, in completion order;
* service lag, per tenant -- an ``array('d')`` of ``actual - gps``, one
  entry per sample, zero-filled for samples taken before a late tenant
  appeared;
* service curves -- one :class:`ServiceRecorder`;
* Gini samples -- a time-ordered list of ``(time, value)``;
* dispatch log -- a list of records, in dispatch order.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Tuple

import numpy as np

from ..units import Cost, Duration, Scalar, SimTime
from .service import ServiceSeries

__all__ = ["ServiceRecorder", "MetricsPartial"]


class ServiceRecorder:
    """Recorder of per-tenant cumulative service curves, one point per
    sample.

    Tenants appearing mid-run are zero-filled for earlier samples; a
    tenant missing from a later sample carries its last value.

    ``baselines`` holds each tenant's cumulative service *before* the
    first sample (the last pre-warmup sample), so
    :meth:`ServiceSeries.service_rate` differences the first sample
    against it instead of against zero.
    """

    __slots__ = ("times", "actual", "gps", "baselines")

    def __init__(self) -> None:
        self.times: List[SimTime] = []
        self.actual: Dict[str, List[Cost]] = {}
        self.gps: Dict[str, List[Cost]] = {}
        self.baselines: Dict[str, Cost] = {}

    def observe(
        self, time: SimTime, actual: Dict[str, Cost], gps: Dict[str, Cost]
    ) -> None:
        index = len(self.times)
        self.times.append(time)
        for store, values in ((self.actual, actual), (self.gps, gps)):
            for tenant, value in values.items():
                column = store.setdefault(tenant, [0.0] * index)
                if len(column) < index:
                    pad = column[-1] if column else 0.0
                    column.extend([pad] * (index - len(column)))
                column.append(value)

    def tenants(self) -> List[str]:
        return sorted(self.actual)

    def columns(self, tenant_id: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, actual, gps) arrays for one tenant; trailing gaps
        carry the last value."""
        n = len(self.times)

        def column(store: Dict[str, List[Cost]]) -> np.ndarray:
            values = store.get(tenant_id, [])
            if len(values) < n:
                pad = values[-1] if values else 0.0
                values = values + [pad] * (n - len(values))
            return np.asarray(values)

        return np.asarray(self.times), column(self.actual), column(self.gps)

    def service_series(self, tenant_id: str) -> ServiceSeries:
        """Freeze one tenant's samples into a :class:`ServiceSeries`."""
        times, actual, gps = self.columns(tenant_id)
        return ServiceSeries(
            tenant_id=tenant_id,
            times=times,
            actual=actual,
            gps=gps,
            baseline=self.baselines.get(tenant_id, 0.0),
        )


class MetricsPartial:
    """Every statistic of one run: the picklable store behind
    :class:`~repro.metrics.collector.RunMetrics`.

    Writers append straight into ``latencies[tenant]``,
    ``dispatch_log`` and ``gini``; :meth:`observe_sample` takes the
    periodic service samples.
    """

    def __init__(self, sample_interval: Duration) -> None:
        self.sample_interval: Duration = float(sample_interval)
        self.latencies: Dict[str, List[Duration]] = {}
        self.lags: Dict[str, "array[float]"] = {}
        self.series = ServiceRecorder()
        self.gini: List[Tuple[SimTime, Scalar]] = []
        self.dispatch_log: List[Any] = []
        self.lag_samples = 0

    def observe_sample(
        self, now: SimTime, actual: Dict[str, Cost], gps: Dict[str, Cost]
    ) -> None:
        lags = self.lags
        for tenant, value in actual.items():
            values = lags.get(tenant)
            if values is None:
                # Late tenant: zero lag for the samples before it was seen.
                values = lags[tenant] = array("d", [0.0] * self.lag_samples)
            values.append(value - gps.get(tenant, 0.0))
        self.lag_samples += 1
        self.series.observe(now, actual, gps)
