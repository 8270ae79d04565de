"""The per-run metrics store (DESIGN.md §13).

Every per-run statistic lives in one :class:`MetricsPartial`, and every
part of it keeps every value:

* latency, per tenant -- a list, in completion order;
* service curves and service lag -- one :class:`ServiceRecorder`;
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
    """Recorder of per-tenant cumulative service curves and service lag,
    one point per sample.

    In the ``actual`` and ``gps`` columns, tenants appearing mid-run are
    zero-filled for earlier samples, and a tenant missing from a later
    sample carries its last value.  ``lags`` holds each tenant's
    ``actual - gps`` as an ``array('d')``: one entry per sample that
    reports the tenant's actual service, zero-filled for the samples
    taken before it first did.

    ``baselines`` holds each tenant's cumulative service *before* the
    first sample (the last pre-warmup sample), so
    :meth:`ServiceSeries.service_rate` differences the first sample
    against it instead of against zero.
    """

    __slots__ = ("times", "actual", "gps", "lags", "baselines")

    def __init__(self) -> None:
        self.times: List[SimTime] = []
        self.actual: Dict[str, List[Cost]] = {}
        self.gps: Dict[str, List[Cost]] = {}
        self.lags: Dict[str, "array[float]"] = {}
        self.baselines: Dict[str, Cost] = {}

    def observe(
        self, time: SimTime, actual: Dict[str, Cost], gps: Dict[str, Cost]
    ) -> None:
        """Record one sample: each tenant's actual and GPS service and its
        lag.  Only a tenant seen for the first time gets a zero prefix,
        so nothing is allocated in proportion to the samples already
        taken."""
        index = len(self.times)
        self.times.append(time)
        for store, values in ((self.actual, actual), (self.gps, gps)):
            for tenant, value in values.items():
                column = store.get(tenant)
                if column is None or len(column) != index:
                    column = store.setdefault(tenant, [])
                    column += _padding(column, index)
                column.append(value)
        lags = self.lags
        for tenant, value in actual.items():
            lag = lags.get(tenant)
            if lag is None:
                lag = lags[tenant] = array("d", [0.0] * index)
            lag.append(value - gps.get(tenant, 0.0))

    def tenants(self) -> List[str]:
        return sorted(self.actual)

    def columns(self, tenant_id: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, actual, gps) arrays for one tenant; trailing gaps
        carry the last value."""
        n = len(self.times)

        def column(store: Dict[str, List[Cost]]) -> np.ndarray:
            values = store.get(tenant_id, [])
            if len(values) < n:
                values = values + _padding(values, n)
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
    ``dispatch_log`` and ``gini``, and the periodic service samples
    into ``series`` (:meth:`ServiceRecorder.observe`).
    """

    def __init__(self, sample_interval: Duration) -> None:
        self.sample_interval: Duration = float(sample_interval)
        self.latencies: Dict[str, List[Duration]] = {}
        self.series = ServiceRecorder()
        self.gini: List[Tuple[SimTime, Scalar]] = []
        self.dispatch_log: List[Any] = []


def _padding(column: List[Cost], length: int) -> List[Cost]:
    """The values that extend ``column`` to ``length`` samples: its last
    value carried forward, or zeros for a tenant not seen before."""
    return [column[-1] if column else 0.0] * (length - len(column))
