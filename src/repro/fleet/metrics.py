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

The collector *is* the single-server
:class:`~repro.metrics.collector.MetricsCollector` -- same sampler,
warmup exclusion and store, read back as a
:class:`~repro.metrics.collector.RunMetrics` -- with three fleet
differences: it attaches its run record to the *fleet*, which writes
admissions and fleet-level completions (so failover re-routes never
double-count), it listens to the fleet's capacity changes and re-rates
the GPS reference into :attr:`FleetCollector.capacity_timeline`, and it
records no Gini samples.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from ..metrics.collector import MetricsCollector
from .fleet import Fleet

__all__ = ["FleetCollector"]


class FleetCollector(MetricsCollector):
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
        super().__init__(
            fleet,
            sample_interval=sample_interval,
            record_dispatches=False,
            warmup=warmup,
        )

    def _attach(self, fleet: Any) -> None:
        #: (time, healthy_capacity) step points, starting at the attach
        #: time and the fleet's full capacity.
        self.capacity_timeline: List[Tuple[float, float]] = [
            (self._epoch, fleet.capacity)
        ]
        fleet.attach_record(self._record)
        fleet.on_capacity_change(self._on_capacity_change)

    def _detach(self, fleet: Any) -> None:
        fleet.detach_record(self._record)
        fleet.remove_capacity_listener(self._on_capacity_change)

    def _on_capacity_change(self, now: float, capacity: float) -> None:
        self.capacity_timeline.append((now, capacity))
        if capacity > 0:
            # The arrivals so far ran at the old rate.
            self._replay_arrivals()
            # An all-down fleet (capacity 0) keeps the last rate: the
            # fluid reference must keep a positive rate, and the lag it
            # accrues against a wedged fleet is exactly the signal.
            self._gps.set_capacity(capacity, now)
