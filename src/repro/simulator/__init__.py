"""Discrete-event simulation substrate.

The paper evaluates all schedulers "in a discrete event simulator where
requests were scheduled across a fixed number of threads" (§6); this
package is that simulator: a deterministic event loop
(:class:`Simulation`), a worker-pool server (:class:`ThreadPoolServer`)
implementing refresh charging, workload sources, an exact fluid GPS
reference (:class:`GPSReference`) for the service-lag metric, and seeded
RNG utilities.
"""

from .clock import Simulation
from .events import EventHandle, EventQueue
from .gps import GPSReference
from .rng import make_rng, stable_hash
from .server import ThreadPoolServer, Worker
from .sources import BackloggedSource, Source, TraceSource

__all__ = [
    "Simulation",
    "EventQueue",
    "EventHandle",
    "ThreadPoolServer",
    "Worker",
    "GPSReference",
    "Source",
    "TraceSource",
    "BackloggedSource",
    "make_rng",
    "stable_hash",
]
