"""Discrete-event simulation substrate.

The paper evaluates all schedulers "in a discrete event simulator where
requests were scheduled across a fixed number of threads" (§6); this
package is that simulator: a deterministic event loop
(:class:`Simulation`, which owns the event heap; ``at``/``after`` return
an event's heap entry as its handle, and only :meth:`Simulation.cancel`
cancels it), a worker-pool server (:class:`ThreadPoolServer`)
implementing refresh charging, workload sources, an exact fluid GPS
reference (:class:`GPSReference`) for the service-lag metric, and seeded
RNG utilities.
"""

from .clock import Simulation
from .gps import GPSReference
from .rng import make_rng, stable_hash
from .server import ThreadPoolServer, Worker
from .sources import BackloggedSource, Source, TraceSource

__all__ = [
    "Simulation",
    "ThreadPoolServer",
    "Worker",
    "GPSReference",
    "Source",
    "TraceSource",
    "BackloggedSource",
    "make_rng",
    "stable_hash",
]
