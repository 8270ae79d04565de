"""Cluster-level fairness metrics for a fleet run.

Per-server fairness is not cluster fairness: a tenant hashed onto the
crashed server can be perfectly served *per surviving server* while its
cluster-wide share collapses.  The :class:`FleetCollector` therefore
compares each tenant's service **aggregated across all servers** against
one fleet-wide :class:`~repro.simulator.gps.GPSReference` whose capacity
is the *healthy* capacity of the fleet (the Balanced-Fairness-style
cluster reference): every admission arrives into the fluid reference,
and at every detected capacity change (crash detection, recovery) the
reference re-rates via
:meth:`~repro.simulator.gps.GPSReference.set_capacity` -- exact, because
a flow's virtual emptying time is capacity-independent.

The collector mirrors the single-server
:class:`~repro.metrics.collector.MetricsCollector` -- absolute-grid
sampling, warmup exclusion for statistics, one
:class:`~repro.metrics.store.MetricsPartial` store read back as a
:class:`~repro.metrics.collector.RunMetrics` -- but listens on the
*fleet* (admissions and completions), so failover re-routes never
double-count.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..core.request import Request
from ..metrics.collector import RunMetrics, validate_sampling
from ..metrics.store import MetricsPartial
from ..simulator.gps import GPSReference
from .fleet import Fleet

__all__ = ["FleetCollector"]


class FleetCollector:
    """Attach to a fleet *before* starting sources; read results after.

    Each sample reads every seen tenant's cluster-wide service from one
    :meth:`~repro.fleet.fleet.Fleet.service_snapshot`: one worker scan
    per server, summed in server order (DESIGN.md §13).
    """

    def __init__(
        self,
        fleet: Fleet,
        sample_interval: float = 0.1,
        warmup: float = 0.0,
    ) -> None:
        validate_sampling(sample_interval, warmup)
        self._fleet = fleet
        self._sim = fleet.sim
        self._interval = float(sample_interval)
        self._warmup = float(warmup)
        self._partial = MetricsPartial(self._interval)
        self._latencies = self._partial.latencies
        self._gps = GPSReference(fleet.capacity)
        self._seen_tenants: Set[str] = set()
        self._previous_service: Dict[str, float] = {}
        self._sample_index = 0
        self._observed_samples = 0
        # Anchor the sampling grid at attach time: `at()` takes an
        # absolute timestamp, so scheduling the bare interval broke for
        # any collector attached after the clock passed t=interval.
        self._epoch = self._sim.now
        #: (time, healthy_capacity) step points, starting at the attach
        #: time and the fleet's full capacity.
        self.capacity_timeline: List[Tuple[float, float]] = [
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
        self.capacity_timeline.append((now, capacity))
        if capacity > 0:
            # An all-down fleet (capacity 0) keeps the last rate: the
            # fluid reference must keep a positive rate, and the lag it
            # accrues against a wedged fleet is exactly the signal.
            self._gps.set_capacity(capacity, now)

    # -- sampling ----------------------------------------------------------

    def _sample(self) -> None:
        now = self._sim.now
        self._gps.advance(now)
        actual = self._fleet.service_snapshot(self._seen_tenants)
        reference = self._gps.service
        gps = {tenant: reference(tenant) for tenant in actual}
        if now >= self._warmup:
            partial = self._partial
            if self._observed_samples == 0 and self._previous_service:
                # First post-warmup sample: the previous (pre-warmup)
                # sample anchors service_rate differencing.
                partial.series.baselines = dict(self._previous_service)
            partial.series.observe(now, actual, gps)
            self._observed_samples += 1
        self._previous_service = actual
        self._sample_index += 1
        self._sim.at(
            self._epoch + (self._sample_index + 1) * self._interval,
            self._sample,
        )

    # -- results -----------------------------------------------------------

    def result(self) -> RunMetrics:
        """Freeze the collected samples into a result object."""
        return RunMetrics(self._partial)
