"""Deterministic fault injection (DESIGN.md §11).

The paper argues 2DFQ's fairness matters most when the system degrades;
this package makes degradation a reproducible experiment input:

* :class:`FaultPlan` (:mod:`repro.faults.plan`) -- a frozen, JSON
  round-trippable description of worker slowdowns/stalls, crashes (with
  in-flight re-dispatch), client deadlines with retry/backoff/jitter,
  and estimator outage/bias windows;
* :class:`FaultInjector` (:mod:`repro.faults.injector`) -- schedules the
  plan's faults as ordinary events in the run's simulation loop;
* :class:`~repro.faults.deadlines.DeadlineTimer` -- the deadline expiry,
  retry and abandonment path that the single-server and the fleet
  injector share;
* :class:`FaultyEstimator` (:mod:`repro.faults.estimator`) -- the
  time-windowed estimator perturbation.

Quickstart::

    from repro.faults import FaultPlan, WorkerCrash

    plan = FaultPlan(crashes=(WorkerCrash(worker=0, at=2.0, restart_at=4.0),))
    config = dataclasses.replace(config, fault_plan=plan)
    result = run_comparison(specs, config)

or end to end: ``python -m repro.figures figfault --faults plan.json``.
"""

from .estimator import FaultyEstimator
from .injector import FaultInjector
from .plan import (
    DeadlinePolicy,
    EstimatorFault,
    FaultPlan,
    ServerCrash,
    ServerSlowdown,
    WorkerCrash,
    WorkerSlowdown,
    retry_delay,
)

__all__ = [
    "FaultPlan",
    "WorkerSlowdown",
    "WorkerCrash",
    "DeadlinePolicy",
    "EstimatorFault",
    "ServerCrash",
    "ServerSlowdown",
    "FaultInjector",
    "FaultyEstimator",
    "retry_delay",
]
