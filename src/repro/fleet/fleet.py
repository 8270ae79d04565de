"""A fault-tolerant fleet of scheduler-fronted servers.

One :class:`Fleet` groups several
:class:`~repro.simulator.server.ThreadPoolServer` instances -- each with
its *own* scheduler, all sharing one
:class:`~repro.simulator.clock.Simulation` -- behind a pluggable
:class:`~repro.fleet.router.Router`.  It satisfies the
:class:`~repro.simulator.sources.SubmitTarget` protocol, so every
workload source (traces, backlogged tenants, Poisson arrivals) drives a
fleet exactly as it drives a single server.

Robustness model (DESIGN.md §16)
--------------------------------
A server crash (:meth:`crash_server`, driven by
:class:`~repro.fleet.injector.FleetInjector`) *freezes* the process:
in-flight requests stop progressing and the scheduler queue strands.
Nothing else happens until the sim-time
:class:`~repro.fleet.health.HealthMonitor` notices the missed probes and
calls :meth:`mark_down` -- the crash-to-detection window is part of the
model, and during it the router keeps feeding the dead server.

On detection, the :class:`FailoverPolicy` drains the dead server: every
stranded request is aborted through the exact-refund ``cancel()`` path
(charged cost, credit and reported usage all return to zero, so the
re-route cannot double-charge) and re-submitted through the router after
a jittered exponential backoff, up to ``max_retries`` attempts; an
exhausted budget abandons the request back to its source.  With
``failover=None`` there is no monitor at all: the router stays oblivious
and stranded work is simply lost -- the degradation contrast the
``figfleet`` figure quantifies.

A submission arriving while every server is marked down is rejected,
and its source is notified :data:`REJECT_RETRY_DELAY` seconds later: a
same-instant notification would make a closed-loop source resubmit into
the identical all-down fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Union,
)

from ..core.request import Request, RequestPhase
from ..errors import ConfigurationError
from ..faults.plan import retry_delay
from ..obs.tracer import Tracer
from ..simulator.clock import Simulation
from ..simulator.rng import make_rng
from ..simulator.server import ThreadPoolServer
from .router import Router, make_router

__all__ = ["FailoverPolicy", "Fleet", "REJECT_RETRY_DELAY"]

#: Seconds between a rejection and the notification of its source.
REJECT_RETRY_DELAY = 0.02

RequestListener = Callable[[Request], None]
CapacityListener = Callable[[float, float], None]


@dataclass(frozen=True)
class FailoverPolicy:
    """Retry budget and backoff schedule for crash failover.

    The backoff schedule is shared with the deadline-retry model
    (:func:`repro.faults.plan.retry_delay`): attempt ``k`` waits
    ``backoff * growth**k`` seconds, stretched by up to ``jitter``
    uniform fraction.
    """

    max_retries: int = 3
    backoff: float = 0.005
    growth: float = 2.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        # A non-finite backoff or growth would only fail at the first
        # failover, mid-run, as a non-finite retry delay.
        if not (
            math.isfinite(self.backoff)
            and self.backoff >= 0
            and math.isfinite(self.growth)
            and self.growth >= 1.0
            and 0 <= self.jitter <= 1
        ):
            raise ConfigurationError(
                "need finite backoff >= 0, finite growth >= 1, "
                "0 <= jitter <= 1; got "
                f"backoff={self.backoff}, growth={self.growth}, "
                f"jitter={self.jitter}"
            )


class Fleet:
    """Routes requests across servers; detects crashes; fails work over.

    Parameters
    ----------
    sim:
        The shared simulation loop; every server must live in it.
    servers:
        The member :class:`ThreadPoolServer` instances (index = server id).
    router:
        A :class:`~repro.fleet.router.Router` instance or registry name.
    failover:
        The crash-failover policy, or ``None`` to disable both failover
        *and* health monitoring (the router then never learns of
        crashes).
    health_interval:
        Probe period of the health monitor (seconds).
    failure_threshold:
        Consecutive missed probes before a server is marked down.
    seed:
        Seeds the router and the failover jitter streams.
    """

    def __init__(
        self,
        sim: Simulation,
        servers: Sequence[ThreadPoolServer],
        router: Union[Router, str] = "least-backlog",
        failover: Optional[FailoverPolicy] = FailoverPolicy(),
        health_interval: float = 0.05,
        failure_threshold: int = 1,
        seed: int = 0,
    ) -> None:
        if not servers:
            raise ConfigurationError("a fleet needs at least one server")
        for index, server in enumerate(servers):
            if server.sim is not sim:
                raise ConfigurationError(
                    f"server {index} belongs to a different Simulation"
                )
        self.sim = sim
        self.servers: List[ThreadPoolServer] = list(servers)
        self.router: Router = (
            make_router(router) if isinstance(router, str) else router
        )
        self.router.bind(self, seed)
        self.failover = failover
        self._rng = make_rng(seed, "fleet", "failover")
        self._trace: Optional[Tracer] = None
        # Routing view: servers *detected* down.  A crashed server stays
        # routable until the health monitor notices -- that window is the
        # point of modelling detection latency.
        self._down: Set[int] = set()
        # Request tracking, keyed by seqno.
        self._live: List[Dict[int, Request]] = [{} for _ in servers]
        self._owner: Dict[int, int] = {}
        self._attempts: Dict[int, int] = {}
        self._pending_retry: Dict[int, Request] = {}
        self.counts: Dict[str, int] = {
            "admitted": 0,
            "rejected": 0,
            "routed": 0,
            "completed": 0,
            "abandoned": 0,
            "server_crashes": 0,
            "server_restores": 0,
            "detections": 0,
            "recoveries": 0,
            "failovers": 0,
            "failover_retries": 0,
        }
        self._admit_listeners: List[RequestListener] = []
        self._reject_listeners: List[RequestListener] = []
        self._complete_listeners: List[RequestListener] = []
        self._abandon_listeners: List[RequestListener] = []
        self._capacity_listeners: List[CapacityListener] = []
        for index, server in enumerate(self.servers):
            server.on_complete(partial(self._on_server_complete, index))
        self.monitor = None
        if failover is not None:
            from .health import HealthMonitor  # import cycle at module load

            self.monitor = HealthMonitor(
                self,
                interval=health_interval,
                failure_threshold=failure_threshold,
            )
            self.monitor.start()

    # -- listeners (fleet-routed requests only) ----------------------------

    def on_admit(self, fn: RequestListener) -> None:
        """Fired once per accepted submission (not per failover retry)."""
        self._admit_listeners.append(fn)

    def on_reject(self, fn: RequestListener) -> None:
        """Fired when a submission finds no healthy server."""
        self._reject_listeners.append(fn)

    def on_complete(self, fn: RequestListener) -> None:
        """Fired once per completed fleet-routed request."""
        self._complete_listeners.append(fn)

    def on_abandon(self, fn: RequestListener) -> None:
        """Fired when a failover retry budget is exhausted."""
        self._abandon_listeners.append(fn)

    def on_capacity_change(self, fn: CapacityListener) -> None:
        """Fired with ``(now, healthy_capacity)`` at every detection and
        recovery -- the fleet-wide GPS reference re-rates on this."""
        self._capacity_listeners.append(fn)

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach a tracer for route/fault events and ``fleet.*`` gauges
        (the member servers and schedulers are attached separately)."""
        self._trace = tracer if tracer is not None and tracer.enabled else None

    # -- observation -------------------------------------------------------

    @property
    def capacity(self) -> float:
        """Total fleet capacity in cost units/second, up or down."""
        return sum(s.num_threads * s.rate for s in self.servers)

    @property
    def healthy_capacity(self) -> float:
        """Capacity of the servers currently routable (not marked down)."""
        return sum(
            self.servers[i].num_threads * self.servers[i].rate
            for i in self._routable()
        )

    @property
    def down(self) -> FrozenSet[int]:
        """Server indices currently marked down by the health monitor."""
        return frozenset(self._down)

    @property
    def backlog(self) -> int:
        """Queued (not running) requests fleet-wide."""
        return sum(s.scheduler.backlog for s in self.servers)

    def service_received(self, tenant_id: str) -> float:
        """Cumulative useful service across all servers -- the quantity
        cluster-level fairness compares against the fleet-wide GPS.
        A read of :meth:`service_snapshot`."""
        return self.service_snapshot((tenant_id,))[tenant_id]

    def service_snapshot(self, tenant_ids: Iterable[str]) -> Dict[str, float]:
        """Fleet-wide cumulative service of every tenant in
        ``tenant_ids``, keyed in their order: one
        :meth:`ThreadPoolServer.service_snapshot` per server, summed in
        server order."""
        tenant_ids = tuple(tenant_ids)
        snapshots = [server.service_snapshot(tenant_ids) for server in self.servers]
        return {
            tenant: sum(snapshot[tenant] for snapshot in snapshots)
            for tenant in tenant_ids
        }

    def pending_seqnos(self) -> Set[int]:
        """Seqnos of requests still in flight: live on a server
        (including frozen on a crashed one), or awaiting a failover
        retry."""
        return set(self._owner) | set(self._pending_retry)

    def update_gauges(self) -> None:
        """Refresh the ``fleet.*`` gauges (no-op without a tracer)."""
        trace = self._trace
        if trace is None:
            return
        registry = trace.registry
        registry.gauge("fleet.healthy_servers").set(len(self._routable()))
        registry.gauge("fleet.backlog").set(self.backlog)
        registry.gauge("fleet.live_requests").set(len(self._owner))
        registry.gauge("fleet.pending_retries").set(len(self._pending_retry))

    # -- ingress -----------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Admit (or reject) one request at the current time."""
        healthy = self._routable()
        if not healthy:
            self._reject(request)
            return
        self.counts["admitted"] += 1
        for fn in self._admit_listeners:
            fn(request)
        self._place(request, healthy)

    def _routable(self) -> List[int]:
        return [i for i in range(len(self.servers)) if i not in self._down]

    def _place(self, request: Request, candidates: List[int]) -> None:
        choice = self.router.route(request, candidates)
        if choice not in candidates:
            raise ConfigurationError(
                f"router {self.router.name!r} chose server {choice}, "
                f"not among the routable {candidates}"
            )
        self._owner[request.seqno] = choice
        self._live[choice][request.seqno] = request
        self.counts["routed"] += 1
        trace = self._trace
        if trace is not None:
            trace.route(
                self.sim.now,
                request.tenant_id,
                seqno=request.seqno,
                server=choice,
                policy=self.router.name,
                healthy=len(candidates),
                backlog=self.backlog,
                accepted=True,
            )
        self.servers[choice].submit(request)

    def _reject(self, request: Request) -> None:
        self.counts["rejected"] += 1
        trace = self._trace
        if trace is not None:
            trace.route(
                self.sim.now,
                request.tenant_id,
                seqno=request.seqno,
                server=None,
                policy=self.router.name,
                healthy=0,
                backlog=self.backlog,
                accepted=False,
                reason="no_healthy_servers",
            )
        for fn in self._reject_listeners:
            fn(request)
        source = request.source
        if source is not None:
            # Deferred: a same-instant notification would make a
            # closed-loop source resubmit into the identical state.
            self.sim.after(
                REJECT_RETRY_DELAY, source.on_request_complete, request
            )

    # -- completion --------------------------------------------------------

    def _on_server_complete(self, index: int, request: Request) -> None:
        if self._live[index].pop(request.seqno, None) is None:
            return  # not fleet-routed (direct server traffic)
        self._owner.pop(request.seqno, None)
        self._attempts.pop(request.seqno, None)
        self.counts["completed"] += 1
        for fn in self._complete_listeners:
            fn(request)

    # -- fault surface (driven by FleetInjector) ---------------------------

    def crash_server(self, index: int) -> None:
        """Kill server ``index`` (freeze semantics; see module docstring).

        Detection, drain and re-routing happen later, through the health
        monitor -- never here."""
        self.servers[index].crash()
        self.counts["server_crashes"] += 1
        trace = self._trace
        if trace is not None:
            trace.fault(self.sim.now, "server_crash", server=index)

    def restore_server(self, index: int) -> None:
        """Bring server ``index`` back; the monitor re-admits it to the
        routable set on its next probe."""
        self.servers[index].restore()
        self.counts["server_restores"] += 1
        trace = self._trace
        if trace is not None:
            trace.fault(self.sim.now, "server_restore", server=index)

    def set_server_speed(self, index: int, factor: float) -> None:
        """Scale every worker of one server (ServerSlowdown windows)."""
        server = self.servers[index]
        for worker in server.workers:
            server.set_worker_speed(worker.index, factor)

    def abort(self, request: Request) -> bool:
        """Abort a fleet-routed request wherever it currently lives
        (fleet-level deadline expiry).  Returns ``False`` if unknown."""
        owner = self._owner.pop(request.seqno, None)
        was_pending = self._pending_retry.pop(request.seqno, None) is not None
        self._attempts.pop(request.seqno, None)
        if owner is None:
            return was_pending
        self._live[owner].pop(request.seqno, None)
        return self.servers[owner].abort(request)

    # -- health transitions (driven by HealthMonitor) ----------------------

    def mark_down(self, index: int) -> None:
        """Remove a server from the routable set and, if a failover
        policy is configured, drain its stranded requests."""
        if index in self._down:
            return
        self._down.add(index)
        self.counts["detections"] += 1
        trace = self._trace
        if trace is not None:
            trace.fault(self.sim.now, "server_down", server=index)
        self._capacity_changed()
        if self.failover is not None:
            self._drain(index)

    def mark_up(self, index: int) -> None:
        """Return a recovered server to the routable set."""
        if index not in self._down:
            return
        self._down.discard(index)
        self.counts["recoveries"] += 1
        trace = self._trace
        if trace is not None:
            trace.fault(self.sim.now, "server_up", server=index)
        self._capacity_changed()

    def _capacity_changed(self) -> None:
        now = self.sim.now
        capacity = self.healthy_capacity
        for fn in self._capacity_listeners:
            fn(now, capacity)

    # -- failover ----------------------------------------------------------

    def _drain(self, index: int) -> None:
        """Abort every request stranded on a dead server (exact refund)
        and schedule a failover retry for each."""
        server = self.servers[index]
        victims = list(self._live[index].values())
        self._live[index].clear()
        for request in victims:
            self._owner.pop(request.seqno, None)
            server.abort(request)
        self.counts["failovers"] += 1
        trace = self._trace
        if trace is not None:
            trace.fault(
                self.sim.now,
                "failover",
                server=index,
                drained=len(victims),
                requeued=len(victims),
            )
        for request in victims:
            self._requeue(request)

    def _requeue(self, request: Request) -> None:
        policy = self.failover
        if policy is None:  # pragma: no cover - drain implies a policy
            return
        attempts = self._attempts.get(request.seqno, 0)
        if attempts >= policy.max_retries:
            self._abandon(request)
            return
        self._attempts[request.seqno] = attempts + 1
        delay = retry_delay(
            policy.backoff,
            policy.growth,
            policy.jitter,
            attempts,
            float(self._rng.uniform(0.0, 1.0)),
        )
        self._pending_retry[request.seqno] = request
        self.sim.after(delay, self._fire_retry, request)

    def _fire_retry(self, request: Request) -> None:
        if self._pending_retry.pop(request.seqno, None) is None:
            return  # aborted while waiting
        if request.phase != RequestPhase.CANCELLED:
            return
        healthy = self._routable()
        if not healthy:
            self._requeue(request)  # burns another attempt
            return
        self.counts["failover_retries"] += 1
        self._place(request, healthy)

    def _abandon(self, request: Request) -> None:
        """Terminal give-up: a failover retry budget ran out, or a
        fleet-level deadline policy expired its last retry (the
        injector routes its abandonments through here so ledger
        listeners see every terminal outcome)."""
        self._attempts.pop(request.seqno, None)
        self.counts["abandoned"] += 1
        trace = self._trace
        if trace is not None:
            trace.fault(
                self.sim.now,
                "abandoned",
                tenant=request.tenant_id,
                seqno=request.seqno,
            )
        for fn in self._abandon_listeners:
            fn(request)
        source = request.source
        if source is not None:
            source.on_request_complete(request)
