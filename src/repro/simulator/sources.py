"""Workload sources: objects that submit requests to a server over time.

Two arrival disciplines cover everything in the paper's evaluation:

* **open loop** -- requests arrive at externally determined times,
  regardless of how the server is doing: trace replay
  (:class:`TraceSource`) of pre-generated arrivals.
* **closed loop / backlogged** -- the tenant keeps a fixed number of
  requests outstanding and submits a new one the moment one completes
  (:class:`BackloggedSource`).  This realizes the paper's "continuously
  backlogged tenants" (§6.1.1, §6.2.2): the tenant's queue never drains,
  so it is always competing for its fair share.

Sources attach themselves to requests (``request.source``) so the server
can notify them of completions in O(1) without a global fan-out.  Each
reads one item of its workload per request (the next record, a sampler
call); the feeds :mod:`repro.workloads.build` gives them (a block-drawn
request stream, a ``map`` over trace rows) make that read C-level.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Optional, Protocol, Tuple

from ..core.request import Request
from ..errors import ConfigurationError
from ..units import Cost, Scalar, SimTime, Weight
from .clock import Simulation

__all__ = [
    "SubmitTarget",
    "Source",
    "TraceSource",
    "BackloggedSource",
]


class SubmitTarget(Protocol):
    """Anything a source can submit requests to.

    :class:`~repro.simulator.server.ThreadPoolServer` is the canonical
    implementation; :class:`repro.fleet.Fleet` satisfies the same
    protocol, so every source in this module drives a single server and
    a routed fleet identically.
    """

    sim: Simulation

    def submit(self, request: Request) -> None: ...

#: A sampler returns (api, cost) for the next request of a tenant.
RequestSampler = Callable[[], Tuple[str, Cost]]


class Source:
    """Base class wiring a source to its server."""

    def __init__(self, server: SubmitTarget) -> None:
        self.server = server
        self.submitted = 0

    def start(self) -> None:
        """Begin submitting work (schedule initial events)."""
        raise NotImplementedError

    def on_request_complete(self, request: Request) -> None:
        """Completion callback; default: nothing (open-loop sources)."""


class TraceSource(Source):
    """Open-loop replay of ``(time, tenant, api, cost)`` records.

    Records are consumed lazily (each arrival schedules the next) so a
    multi-million-record trace does not preload the event heap.

    Parameters
    ----------
    records:
        Iterable of ``(time, tenant_id, api, cost)`` tuples sorted by
        time.  Times are in trace seconds.  Give an iterator that builds
        no Python frame per record (``map`` of an ``attrgetter``, as
        :func:`~repro.workloads.build.attach_trace` does): ``next`` on it
        runs once per arrival.
    speed:
        Replay speed multiplier, positive and finite: 2.0 compresses the
        trace to half its duration (the paper sweeps 0.5x - 4x in
        §6.2.2).
    weight:
        Scheduler weight stamped on every replayed request.
    """

    def __init__(
        self,
        server: SubmitTarget,
        records: Iterable[Tuple[SimTime, str, str, Cost]],
        speed: Scalar = 1.0,
        weight: Weight = 1.0,
    ) -> None:
        super().__init__(server)
        if not 0.0 < speed < math.inf:
            raise ConfigurationError(
                f"speed must be positive and finite, got {speed!r}"
            )
        self._records: Iterator[Tuple[SimTime, str, str, Cost]] = iter(records)
        self._speed: Scalar = float(speed)
        self._weight: Weight = float(weight)
        self._last_time: Optional[SimTime] = None

    def start(self) -> None:
        self._schedule_next()

    def _schedule_next(self) -> None:
        record = next(self._records, None)
        if record is None:
            return
        time, tenant_id, api, cost = record
        if self._last_time is not None and time < self._last_time:
            raise ConfigurationError("trace records must be sorted by time")
        self._last_time = time
        self.server.sim.at(
            time / self._speed, self._fire, tenant_id, api, cost
        )

    def _fire(self, tenant_id: str, api: str, cost: Cost) -> None:
        self.server.submit(
            Request(tenant_id, cost, api, weight=self._weight, source=self)
        )
        self.submitted += 1
        self._schedule_next()


class BackloggedSource(Source):
    """Closed-loop tenant that always has ``window`` requests in flight.

    On start it submits ``window`` requests; each completion immediately
    triggers the next submission, so the tenant's logical queue never
    drains -- the "continuously backlogged" tenants of the evaluation.

    Parameters
    ----------
    tenant_id:
        Flow identifier.
    sampler:
        Callable returning ``(api, cost)`` for each new request; it runs
        once per request.  Spec-built tenants pass the ``__next__`` of
        :meth:`~repro.workloads.spec.TenantSpec.request_stream`, which
        runs no Python frame per request.
    window:
        Number of outstanding requests to maintain, an integer >= 1.
        Values above 1 keep the tenant backlogged even while requests
        execute.
    start_time:
        Simulated time of the first submissions, finite and >= 0.
    limit:
        Optional cap on total submissions, an integer >= 0 (for bounded
        tests).
    """

    def __init__(
        self,
        server: SubmitTarget,
        tenant_id: str,
        sampler: RequestSampler,
        window: int = 4,
        weight: Weight = 1.0,
        start_time: SimTime = 0.0,
        limit: Optional[int] = None,
    ) -> None:
        super().__init__(server)
        # NaN fails every comparison, so it is rejected too.
        if not (window >= 1 and window % 1 == 0):
            raise ConfigurationError(f"window must be an integer >= 1, got {window!r}")
        if limit is not None and not (limit >= 0 and limit % 1 == 0):
            raise ConfigurationError(
                f"limit must be None or an integer >= 0, got {limit!r}"
            )
        if not 0.0 <= start_time < math.inf:
            raise ConfigurationError(
                f"start_time must be finite and >= 0, got {start_time!r}"
            )
        self.tenant_id = tenant_id
        self._sampler = sampler
        self._window = int(window)
        self._weight: Weight = float(weight)
        self._start_time: SimTime = float(start_time)
        self._limit = limit

    def start(self) -> None:
        self.server.sim.at(self._start_time, self._prime)

    def _prime(self) -> None:
        for _ in range(self._window):
            self._submit_next(None)

    def on_request_complete(self, request: Optional[Request]) -> None:
        """Submit the tenant's next request, unless ``limit`` is reached.

        The closed loop's per-request path, so it builds and submits the
        request in this one frame."""
        limit = self._limit
        if limit is not None and self.submitted >= limit:
            return
        api, cost = self._sampler()
        self.server.submit(
            Request(self.tenant_id, cost, api, weight=self._weight, source=self)
        )
        self.submitted += 1

    #: The priming submissions run the same body under a name of their
    #: own, so whatever wraps or replaces ``on_request_complete`` (on the
    #: class or on an instance) sees completions only.
    _submit_next = on_request_complete
