"""Cluster-level fairness metrics for a fleet run.

Per-server fairness is not cluster fairness: a tenant hashed onto the
crashed server can be perfectly served *per surviving server* while its
cluster-wide share collapses.  The :class:`FleetCollector` therefore
compares each tenant's service **aggregated across all servers** against
one fleet-wide :class:`~repro.simulator.gps.GPSReference` whose capacity
is the *healthy* capacity of the fleet (the Balanced-Fairness-style
cluster reference): every logical admission arrives into the fluid
reference, and at every detected capacity change (crash detection,
recovery) the reference re-rates via
:meth:`~repro.simulator.gps.GPSReference.set_capacity` -- exact, because
a flow's virtual emptying time is capacity-independent.

The collector mirrors the single-server
:class:`~repro.metrics.collector.MetricsCollector` shape -- absolute-grid
sampling into a :class:`~repro.metrics.service.ServiceTracker`, latency
lists per tenant, warmup exclusion for statistics -- but listens on the
*fleet* (logical admissions and completions), so hedge duplicates and
failover re-routes never double-count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.request import Request
from ..metrics.latency import LatencyStats, latency_stats
from ..metrics.service import ServiceSeries, ServiceTracker
from ..simulator.gps import GPSReference
from .fleet import Fleet

__all__ = ["FleetCollector", "FleetRunMetrics"]


@dataclass
class FleetRunMetrics:
    """Frozen results of one fleet run."""

    tracker: ServiceTracker
    latencies: Dict[str, List[float]]
    counts: Dict[str, int]
    sample_interval: float
    capacity: float
    #: (time, healthy_capacity) step points, starting at (0, capacity).
    capacity_timeline: List[Tuple[float, float]] = field(default_factory=list)

    def tenants(self) -> List[str]:
        return self.tracker.tenants()

    def service_series(self, tenant_id: str) -> ServiceSeries:
        """Fleet-aggregated service vs the fleet-wide GPS reference."""
        return self.tracker.series(tenant_id)

    def lag_sigma(
        self, tenant_id: str, reference_rate: Optional[float] = None
    ) -> float:
        return self.service_series(tenant_id).lag_sigma(reference_rate)

    def lag_sigmas(
        self, reference_rate: Optional[float] = None
    ) -> Dict[str, float]:
        return {
            tenant: self.lag_sigma(tenant, reference_rate)
            for tenant in self.tenants()
        }

    def max_abs_lag(self, tenant_id: str) -> float:
        """Worst absolute service lag (cost units) over the run -- the
        boundedness criterion of the crash-failover acceptance test."""
        lag = self.service_series(tenant_id).lag_units()
        if lag.size == 0:
            return 0.0
        return float(max(abs(float(lag.min())), abs(float(lag.max()))))

    def latency_stats(self, tenant_id: str) -> LatencyStats:
        return latency_stats(self.latencies.get(tenant_id, []))

    def completed(self, tenant_id: Optional[str] = None) -> int:
        if tenant_id is None:
            return self.counts.get("completed", 0)
        return len(self.latencies.get(tenant_id, []))


class FleetCollector:
    """Attach to a fleet *before* starting sources; read results after."""

    def __init__(
        self,
        fleet: Fleet,
        sample_interval: float = 0.1,
        warmup: float = 0.0,
    ) -> None:
        if sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {sample_interval}"
            )
        self._fleet = fleet
        self._sim = fleet.sim
        self._interval = float(sample_interval)
        self._warmup = float(warmup)
        self._tracker = ServiceTracker()
        self._gps = GPSReference(fleet.capacity)
        self._latencies: Dict[str, List[float]] = {}
        self._seen_tenants: Set[str] = set()
        self._previous_service: Dict[str, float] = {}
        self._sample_index = 0
        self._observed_samples = 0
        # Anchor the sampling grid at attach time: `at()` takes an
        # absolute timestamp, so scheduling the bare interval broke for
        # any collector attached after the clock passed t=interval.
        self._epoch = self._sim.now
        self._capacity_timeline: List[Tuple[float, float]] = [
            (self._epoch, fleet.capacity)
        ]
        fleet.on_admit(self._on_admit)
        fleet.on_complete(self._on_complete)
        fleet.on_capacity_change(self._on_capacity_change)
        self._sim.at(self._epoch + self._interval, self._sample)

    # -- listeners ---------------------------------------------------------

    def _on_admit(self, request: Request) -> None:
        self._seen_tenants.add(request.tenant_id)
        self._gps.arrive(
            request.tenant_id, request.cost, self._sim.now, request.weight
        )

    def _on_complete(self, request: Request) -> None:
        if request.completion_time >= self._warmup:
            self._latencies.setdefault(request.tenant_id, []).append(
                request.latency
            )

    def _on_capacity_change(self, now: float, capacity: float) -> None:
        self._capacity_timeline.append((now, capacity))
        if capacity > 0:
            # An all-down fleet (capacity 0) keeps the last rate: the
            # fluid reference must keep a positive rate, and the lag it
            # accrues against a wedged fleet is exactly the signal.
            self._gps.set_capacity(capacity, now)

    # -- sampling ----------------------------------------------------------

    def _sample(self) -> None:
        now = self._sim.now
        self._gps.advance(now)
        actual: Dict[str, float] = {}
        gps: Dict[str, float] = {}
        for tenant in self._seen_tenants:
            actual[tenant] = self._fleet.service_received(tenant)
            gps[tenant] = self._gps.service(tenant)
        if now >= self._warmup:
            if self._observed_samples == 0 and self._previous_service:
                self._tracker.set_baselines(self._previous_service)
            self._tracker.observe(now, actual, gps)
            self._observed_samples += 1
        self._previous_service = actual
        self._sample_index += 1
        self._sim.at(
            self._epoch + (self._sample_index + 1) * self._interval,
            self._sample,
        )

    # -- results -----------------------------------------------------------

    def result(self) -> FleetRunMetrics:
        """Freeze the collected samples into a result object."""
        return FleetRunMetrics(
            tracker=self._tracker,
            latencies=self._latencies,
            counts=dict(self._fleet.counts),
            sample_interval=self._interval,
            capacity=self._fleet.capacity,
            capacity_timeline=list(self._capacity_timeline),
        )
