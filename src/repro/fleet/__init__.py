"""Fault-tolerant multi-server fleet: routing, health, failover, and
cluster-level fairness on top of the single-server simulator.

Layer map (DESIGN.md §16):

* :mod:`repro.fleet.router` -- pluggable placement policies (random,
  round-robin, least-backlog, tenant-consistent-hash);
* :mod:`repro.fleet.fleet` -- the :class:`Fleet` itself: crash
  failover with exact-refund re-routing and the :class:`FailoverPolicy`
  retry budget;
* :mod:`repro.fleet.health` -- the sim-time failure detector bounding
  the crash-to-detection window;
* :mod:`repro.fleet.injector` -- executes the fleet-granularity faults
  (``server_crashes`` / ``server_slowdowns``) of a
  :class:`~repro.faults.plan.FaultPlan`;
* :mod:`repro.fleet.metrics` -- per-tenant service aggregated across
  servers vs a fleet-wide GPS reference (cluster fairness), read back
  as a :class:`~repro.metrics.collector.RunMetrics`.
"""

from .fleet import FailoverPolicy, Fleet
from .health import HealthMonitor
from .injector import FleetInjector
from .metrics import FleetCollector
from .router import (
    LeastBacklogRouter,
    RandomRouter,
    RoundRobinRouter,
    Router,
    TenantHashRouter,
    make_router,
    router_names,
)

__all__ = [
    "FailoverPolicy",
    "Fleet",
    "HealthMonitor",
    "FleetInjector",
    "FleetCollector",
    "Router",
    "RandomRouter",
    "RoundRobinRouter",
    "LeastBacklogRouter",
    "TenantHashRouter",
    "make_router",
    "router_names",
]
