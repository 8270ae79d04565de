"""repro: a full reproduction of *2DFQ: Two-Dimensional Fair Queuing for
Multi-Tenant Cloud Services* (Mace et al., SIGCOMM 2016).

The package provides:

* :mod:`repro.core` -- the 2DFQ / 2DFQ^E schedulers and every baseline
  fair queue scheduler the paper compares against;
* :mod:`repro.estimation` -- cost estimators for scheduling with unknown
  request costs;
* :mod:`repro.simulator` -- a deterministic discrete-event thread-pool
  simulator and an exact fluid GPS reference;
* :mod:`repro.workloads` -- synthetic and Azure-Storage-like workload
  models, traces, and arrival processes;
* :mod:`repro.metrics` -- service lag, service rate, Gini index, and
  latency metrics;
* :mod:`repro.experiments` -- the harness regenerating every figure of
  the paper's evaluation.

Quickstart::

    from repro import make_scheduler, Simulation, ThreadPoolServer
    from repro.simulator import BackloggedSource

    sim = Simulation()
    scheduler = make_scheduler("2dfq", num_threads=4, thread_rate=100.0)
    server = ThreadPoolServer(sim, scheduler, num_threads=4, rate=100.0)
    BackloggedSource(server, "tenantA", lambda: ("read", 1.0)).start()
    BackloggedSource(server, "tenantB", lambda: ("scan", 50.0)).start()
    sim.run(until=10.0)
"""

from .core import (
    Request,
    Scheduler,
    TwoDFQEScheduler,
    TwoDFQScheduler,
    VirtualTimeScheduler,
    make_scheduler,
    scheduler_names,
)
from .errors import (
    ConfigurationError,
    ReproError,
    SchedulerError,
    SimulationError,
    WorkloadError,
)
from .simulator import GPSReference, Simulation, ThreadPoolServer

__version__ = "1.0.0"

__all__ = [
    "Request",
    "Scheduler",
    "VirtualTimeScheduler",
    "TwoDFQScheduler",
    "TwoDFQEScheduler",
    "make_scheduler",
    "scheduler_names",
    "Simulation",
    "ThreadPoolServer",
    "GPSReference",
    "ReproError",
    "ConfigurationError",
    "SchedulerError",
    "SimulationError",
    "WorkloadError",
    "__version__",
]
