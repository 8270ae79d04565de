"""The per-sample metrics store and the listener collector, kept as test
oracles for the row store of ``repro.metrics.store``.

:class:`ServiceRecorder` is the recorder as it stood before samples
were stored as rows: every sample walks its tenants in Python and
appends to per-tenant columns and lag arrays at once.
:class:`ListenerCollector` is the collector of that time, reduced to
what it recorded: per-request listeners (a submit or admission, a
dispatch, a completion), each arrival fed to the fluid reference as it
comes (the old lazy heap, ``reference.lazy_gps``), and each sample's
service dicts, Gini index (``gini_index`` of that row alone) and
warmup baselines.  Nothing here is imported from the row store.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

import numpy as np

from reference.lazy_gps import GPSReference
from repro.metrics.gini import gini_index


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
    first sample (the last pre-warmup sample).
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.actual: Dict[str, List[float]] = {}
        self.gps: Dict[str, List[float]] = {}
        self.lags: Dict[str, "array[float]"] = {}
        self.baselines: Dict[str, float] = {}

    def observe(
        self, time: float, actual: Dict[str, float], gps: Dict[str, float]
    ) -> None:
        """Record one sample: each tenant's actual and GPS service and its
        lag."""
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

        def column(store: Dict[str, List[float]]) -> np.ndarray:
            values = store.get(tenant_id, [])
            if len(values) < n:
                values = values + _padding(values, n)
            return np.asarray(values, dtype=float)

        return np.asarray(self.times, dtype=float), column(self.actual), column(self.gps)


def _padding(column: List[float], length: int) -> List[float]:
    """The values that extend ``column`` to ``length`` samples: its last
    value carried forward, or zeros for a tenant not seen before."""
    return [column[-1] if column else 0.0] * (length - len(column))


def interval_gini(
    states: Dict[str, Tuple[bool, float]],
    actual: Dict[str, float],
    previous: Dict[str, float],
) -> List[float]:
    """The weight-normalized interval service of the active tenants,
    in ``states`` order (``tenant -> (active, weight)``)."""
    values = []
    for tenant_id, (active, weight) in states.items():
        if active:
            delta = actual.get(tenant_id, 0.0) - previous.get(tenant_id, 0.0)
            values.append((delta if delta > 0.0 else 0.0) / weight)
    return values


class ListenerCollector:
    """The metrics of one server or fleet run, recorded by listeners.

    On a server it listens to submits, dispatches and completions and
    takes a Gini sample per post-warmup sample; on a fleet
    (``fleet=True``) it listens to admissions, fleet-level completions
    and capacity changes, and takes no Gini sample.  Attributes:
    ``series`` (a :class:`ServiceRecorder`), ``gini`` (``(time,
    index)``), ``latencies`` and ``dispatch_log`` (``(thread, tenant,
    api, cost, start, start + cost / rate)`` tuples)."""

    def __init__(self, target, sample_interval=0.1, warmup=0.0, fleet=False):
        self._target = target
        self._sim = target.sim
        self._interval = float(sample_interval)
        self._warmup = float(warmup)
        self._fleet = fleet
        self._gps = GPSReference(target.capacity)
        self.series = ServiceRecorder()
        self.gini: List[Tuple[float, float]] = []
        self.latencies: Dict[str, List[float]] = {}
        self.dispatch_log: List[tuple] = []
        self._seen: Dict[str, None] = {}
        self._previous: Dict[str, float] = {}
        self._observed = 0
        self._index = 0
        self._epoch = self._sim.now
        if fleet:
            target.on_admit(self._on_submit)
            target.on_complete(self._on_complete)
            target.on_capacity_change(self._on_capacity_change)
        else:
            target.on_submit(self._on_submit)
            target.on_dispatch(self._on_dispatch)
            target.on_complete(self._on_complete)
        self._sim.at(self._epoch + self._interval, self._sample)

    def _on_submit(self, request):
        self._seen[request.tenant_id] = None
        self._gps.arrive(request.tenant_id, request.cost, self._sim.now, request.weight)

    def _on_dispatch(self, request):
        start = request.dispatch_time
        self.dispatch_log.append(
            (
                request.thread_id,
                request.tenant_id,
                request.api,
                request.cost,
                start,
                start + request.cost / self._target.rate,
            )
        )

    def _on_complete(self, request):
        done = request.completion_time
        if done >= self._warmup:
            self.latencies.setdefault(request.tenant_id, []).append(
                done - request.arrival_time
            )

    def _on_capacity_change(self, now, capacity):
        if capacity > 0:
            self._gps.set_capacity(capacity, now)

    def _sample(self):
        now = self._sim.now
        self._gps.advance(now)
        actual = self._target.service_snapshot(list(self._seen))
        gps = self._gps.services(actual)
        if now >= self._warmup:
            if self._observed == 0 and self._previous:
                self.series.baselines = dict(self._previous)
            if not self._fleet:
                states = {
                    tenant: (state.active, state.weight)
                    for tenant, state in self._target.scheduler.tenants().items()
                }
                values = interval_gini(states, actual, self._previous)
                if values:
                    self.gini.append((now, gini_index(values)))
            self.series.observe(now, actual, gps)
            self._observed += 1
        self._previous = actual
        self._index += 1
        self._sim.at(self._epoch + (self._index + 1) * self._interval, self._sample)
