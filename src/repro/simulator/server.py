"""Simulated multi-tenant server: admission queue + worker thread pool.

Models the shared-process setting of the paper: requests of many tenants
arrive at one process and are executed by a fixed pool of ``n`` worker
threads, each processing ``rate`` cost-units per second.  Requests are
not preemptible (paper §1); once dispatched, a request occupies its
worker for ``cost / rate`` seconds.

The server drives the scheduler through the four-call contract described
in :mod:`repro.core.scheduler`, including the periodic **refresh
charging** measurements of paper §5: every ``refresh_interval`` seconds
(the paper uses 10 ms) it reports each running request's usage since the
last report, so the scheduler notices under-estimated expensive requests
while they are still running.

Idle workers are offered work in *descending* thread-index order.
Under 2DFQ high-index threads are where small requests become eligible
first, so offering them first gives small requests the first shot at
their preferred threads; for thread-oblivious schedulers the order is
irrelevant.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional

from ..core.request import Request
from ..core.scheduler import Scheduler
from ..errors import ConfigurationError, SimulationError
from ..units import Cost, Duration, Rate, Scalar, SimTime
from .clock import Simulation

if TYPE_CHECKING:  # import cycle: repro.obs instruments the simulator
    from ..obs.tracer import Tracer

__all__ = ["ThreadPoolServer", "Worker"]

RequestListener = Callable[[Request], None]


class Worker:
    """State of one worker thread."""

    __slots__ = (
        "index",
        "request",
        "started",
        "last_report",
        "completion_event",
        "speed",
        "done_work",
        "work_mark",
        "crashed",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.request: Optional[Request] = None
        self.started: SimTime = 0.0
        #: Time of the last usage report sent to the scheduler (refresh).
        self.last_report: SimTime = 0.0
        self.completion_event = None
        #: Relative processing speed (fault injection): 1.0 = healthy,
        #: 0 < speed < 1 = degraded, 0.0 = stalled.  Multiplying by the
        #: default 1.0 is exact in IEEE754, so a fault-free run's float
        #: arithmetic is bit-identical to the pre-fault formulas.
        self.speed: Scalar = 1.0
        #: Cost units completed on the current request before the last
        #: speed change (progress must be integrated piecewise once the
        #: speed varies mid-request).
        self.done_work: Cost = 0.0
        #: Simulated time ``done_work`` was last folded up.
        self.work_mark: SimTime = 0.0
        #: Crashed workers hold no request and are skipped by dispatch
        #: until restored.
        self.crashed = False

    @property
    def busy(self) -> bool:
        return self.request is not None


class ThreadPoolServer:
    """N worker threads fed by a pluggable request scheduler.

    Parameters
    ----------
    sim:
        The simulation loop this server lives in.
    scheduler:
        Any :class:`~repro.core.scheduler.Scheduler`; its ``num_threads``
        must match this server's.
    num_threads:
        Worker-pool size (the paper evaluates 2..64).
    rate:
        Per-thread processing rate in cost units per second.
    refresh_interval:
        Period of refresh-charging measurements in seconds, or ``None``
        to disable interim reports (usage is then reported only at
        completion).  Paper default: 0.01 (10 ms).
    """

    def __init__(
        self,
        sim: Simulation,
        scheduler: Scheduler,
        num_threads: int,
        rate: Rate = 1.0,
        refresh_interval: Optional[Duration] = 0.01,
    ) -> None:
        if scheduler.num_threads != num_threads:
            raise ConfigurationError(
                f"scheduler built for {scheduler.num_threads} threads, "
                f"server has {num_threads}"
            )
        if not 0.0 < rate < math.inf:
            raise ConfigurationError(f"rate must be positive and finite, got {rate}")
        if refresh_interval is not None and not 0.0 < refresh_interval < math.inf:
            raise ConfigurationError(
                "refresh_interval must be positive and finite, or None, got "
                f"{refresh_interval}"
            )
        self.sim = sim
        self.scheduler = scheduler
        self.rate: Rate = float(rate)
        self.num_threads = int(num_threads)
        self.workers: List[Worker] = [Worker(i) for i in range(num_threads)]
        # Workers in the order idle ones are offered work (descending
        # index), fixed at construction so dispatch never re-sorts.
        self._dispatch_cycle: List[Worker] = self.workers[::-1]
        self._refresh_interval: Optional[Duration] = refresh_interval
        self._refresh_scheduled = False
        #: Attached :class:`repro.obs.Tracer` or ``None``; same
        #: single-attribute-check overhead contract as the schedulers.
        self._trace: Optional["Tracer"] = None
        self._submit_listeners: List[RequestListener] = []
        self._dispatch_listeners: List[RequestListener] = []
        self._complete_listeners: List[RequestListener] = []
        self._completed_cost: dict[str, Cost] = {}
        self._completed_requests = 0
        self._crashed = False

    # -- listeners --------------------------------------------------------------

    def on_submit(self, fn: RequestListener) -> None:
        """Register a callback fired when a request is admitted."""
        self._submit_listeners.append(fn)

    def on_dispatch(self, fn: RequestListener) -> None:
        """Register a callback fired when a request starts executing."""
        self._dispatch_listeners.append(fn)

    def on_complete(self, fn: RequestListener) -> None:
        """Register a callback fired when a request finishes."""
        self._complete_listeners.append(fn)

    def attach_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach a :class:`repro.obs.Tracer`; the server contributes
        refresh-charging counters and a busy-worker gauge to the
        tracer's registry (the decision *events* come from the
        scheduler).  Disabled tracers are stored as ``None``."""
        self._trace = (
            tracer if tracer is not None and tracer.enabled else None
        )

    # -- ingress ------------------------------------------------------------------

    def submit(self, request: Request) -> None:
        """Admit a request at the current simulated time.

        A NaN, infinite or negative cost is rejected here: it would
        poison the tenant's tags and silently starve it."""
        if not 0.0 <= request.cost < math.inf:
            raise ConfigurationError(
                f"request #{request.seqno} of tenant {request.tenant_id} has "
                f"cost {request.cost}; costs must be finite and >= 0"
            )
        now = self.sim.now
        request.arrival_time = now
        self.scheduler.enqueue(request, now)
        for fn in self._submit_listeners:
            fn(request)
        self._dispatch_idle()
        self._ensure_refresh_timer()

    # -- observation ---------------------------------------------------------------

    @property
    def busy_workers(self) -> int:
        return sum(1 for w in self.workers if w.busy)

    @property
    def completed_requests(self) -> int:
        return self._completed_requests

    def completed_cost(self, tenant_id: str) -> Cost:
        """Total cost of completed requests for a tenant."""
        return self._completed_cost.get(tenant_id, 0.0)

    def service_received(self, tenant_id: str) -> Cost:
        """Cumulative service (cost units) delivered to a tenant so far,
        counting partial progress of running requests -- the quantity the
        paper's service-rate and service-lag metrics are computed from.
        A read of :meth:`service_snapshot`, which holds the formula."""
        return self.service_snapshot((tenant_id,))[tenant_id]

    def service_snapshot(self, tenant_ids: Iterable[str]) -> Dict[str, Cost]:
        """Cumulative service of every tenant in ``tenant_ids``, keyed in
        their order, from one scan of the workers.

        Each total starts from the tenant's completed cost and adds the
        capped progress of its running requests in worker-index order.
        Progress integrates the worker's speed piecewise:
        ``done_work`` accumulates the segments before the last speed
        change and the current segment runs at the current speed.  On a
        healthy worker (``speed == 1.0``, ``done_work == 0.0``) this
        reduces bit-exactly to ``(now - started) * rate``.
        """
        completed = self._completed_cost
        totals = {tenant: completed.get(tenant, 0.0) for tenant in tenant_ids}
        now = self.sim.now
        for worker in self.workers:
            request = worker.request
            if request is not None and request.tenant_id in totals:
                progress = (
                    worker.done_work
                    + (now - worker.work_mark) * self.rate * worker.speed
                )
                totals[request.tenant_id] += min(progress, request.cost)
        return totals

    def running_requests(self) -> List[Request]:
        """Requests currently executing (one per busy worker)."""
        return [w.request for w in self.workers if w.request is not None]

    # -- fault injection ----------------------------------------------------------
    #
    # These hooks are only ever called by repro.faults; a fault-free run
    # never reaches them, so the hot path is untouched (DESIGN.md §11).

    def set_worker_speed(self, index: int, speed: Scalar) -> None:
        """Change a worker's processing speed (1.0 healthy, 0.0 stalled).

        If the worker is mid-request, its usage so far is flushed to the
        scheduler at the *old* speed (refresh charging stays exact
        across the boundary), progress is folded into ``done_work``, and
        the completion event is rescheduled from the remaining cost at
        the new speed -- or removed entirely while stalled.
        """
        if speed < 0:
            raise ConfigurationError(f"worker speed must be >= 0, got {speed}")
        worker = self.workers[index]
        now = self.sim.now
        request = worker.request
        if request is not None:
            usage = (now - worker.last_report) * self.rate * worker.speed
            if usage > 0.0:
                self.scheduler.refresh(request, usage, now)
            worker.last_report = now
            worker.done_work += (now - worker.work_mark) * self.rate * worker.speed
            worker.work_mark = now
            if worker.completion_event is not None:
                self.sim.cancel(worker.completion_event)
                worker.completion_event = None
        worker.speed = float(speed)
        if request is not None and speed > 0.0:
            remaining = max(0.0, request.cost - worker.done_work)
            worker.completion_event = self.sim.at(
                now + remaining / (self.rate * speed),
                self._finish,
                worker,
                request,
            )

    def crash_worker(self, index: int, redispatch: bool = True) -> Optional[Request]:
        """Crash a worker: its in-flight request (if any) loses all
        progress and is cancelled out of the scheduler's accounting; with
        ``redispatch`` (the default) it is immediately re-enqueued -- the
        service-level retry of a request lost to a dead worker -- keeping
        its arrival time and seqno.  The worker accepts no work until
        :meth:`restore_worker`.  Returns the interrupted request."""
        worker = self.workers[index]
        now = self.sim.now
        worker.crashed = True
        request = worker.request
        if request is not None:
            if worker.completion_event is not None:
                self.sim.cancel(worker.completion_event)
                worker.completion_event = None
            worker.request = None
            self.scheduler.cancel(request, now)
            if redispatch:
                self.scheduler.enqueue(request, now)
                self._dispatch_idle()
                self._ensure_refresh_timer()
        return request

    def restore_worker(self, index: int) -> None:
        """Bring a crashed worker back at full speed and offer it work."""
        worker = self.workers[index]
        worker.crashed = False
        worker.speed = 1.0
        self._dispatch_idle()
        self._ensure_refresh_timer()

    @property
    def crashed(self) -> bool:
        """True between :meth:`crash` and :meth:`restore` -- the whole
        process is down, as opposed to individual crashed workers."""
        return self._crashed

    def crash(self) -> None:
        """Kill the whole server process.

        Every worker freezes where it stands: usage reported so far
        stays charged (flushed at the old speed through the
        ``set_worker_speed`` path), in-flight progress is retained but
        never advances, and dispatch halts until :meth:`restore`.  The
        scheduler's queue is deliberately *not* touched -- whether the
        stranded requests are drained to surviving servers (exact-refund
        ``cancel()`` + re-route) or left stuck is the fleet failover
        policy's decision, not the server's.
        """
        for worker in self.workers:
            self.set_worker_speed(worker.index, 0.0)
            worker.crashed = True
        self._crashed = True

    def restore(self) -> None:
        """Bring a crashed server back at full speed.

        Frozen in-flight requests resume from their retained progress
        (a drained server comes back empty, so there is nothing to
        resume) and idle workers are offered the backlog.
        """
        self._crashed = False
        for worker in self.workers:
            worker.crashed = False
            self.set_worker_speed(worker.index, 1.0)
        self._dispatch_idle()
        self._ensure_refresh_timer()

    def abort(self, request: Request) -> bool:
        """Cancel a submitted request (client-side deadline/cancellation).

        Works in either lifecycle phase: a queued request is removed
        from the scheduler, a running one is torn off its worker (its
        completion event is cancelled and the freed worker is re-offered
        work).  Returns ``False`` for a stale abort (already completed
        or cancelled)."""
        now = self.sim.now
        for worker in self.workers:
            if worker.request is request:
                if worker.completion_event is not None:
                    self.sim.cancel(worker.completion_event)
                    worker.completion_event = None
                worker.request = None
                cancelled = self.scheduler.cancel(request, now)
                self._dispatch_idle()
                return cancelled
        return self.scheduler.cancel(request, now)

    # -- internals --------------------------------------------------------------------

    def _dispatch_idle(self) -> None:
        """Offer work to every idle, non-crashed worker while the
        scheduler has any.

        All schedulers in this library are work conserving, so a ``None``
        from ``dequeue`` means the backlog is empty and the scan can stop.
        Stalled workers (``speed == 0``) still accept work -- a degraded
        thread holds its request frozen until its speed recovers.
        """
        now = self.sim.now
        scheduler = self.scheduler
        if scheduler.backlog == 0:
            return
        for worker in self._dispatch_cycle:
            if worker.request is None and not worker.crashed:
                request = scheduler.dequeue(worker.index, now)
                if request is None:
                    break
                self._start(worker, request)

    def _start(self, worker: Worker, request: Request) -> None:
        now = self.sim.now
        worker.request = request
        worker.started = now
        worker.last_report = now
        worker.done_work = 0.0
        worker.work_mark = now
        if worker.speed > 0.0:
            duration = request.cost / (self.rate * worker.speed)
            worker.completion_event = self.sim.at(
                now + duration, self._finish, worker, request
            )
        else:
            # Stalled: no completion until set_worker_speed revives it.
            worker.completion_event = None
        for fn in self._dispatch_listeners:
            fn(request)

    def _finish(self, worker: Worker, request: Request) -> None:
        if worker.request is not request:
            raise SimulationError(
                f"completion fired for a stale request on worker "
                f"{worker.index}: expected {request.tenant_id}/"
                f"{request.api}#{request.seqno}, worker is running "
                f"{worker.request!r}"
            )
        now = self.sim.now
        final_usage = (now - worker.last_report) * self.rate * worker.speed
        worker.request = None
        worker.completion_event = None
        request.completion_time = now
        self.scheduler.complete(request, final_usage, now)
        self._completed_cost[request.tenant_id] = (
            self._completed_cost.get(request.tenant_id, 0.0) + request.cost
        )
        self._completed_requests += 1
        source = request.source
        for fn in self._complete_listeners:
            fn(request)
        if source is not None:
            source.on_request_complete(request)
        self._dispatch_idle()

    def _ensure_refresh_timer(self) -> None:
        if self._refresh_interval is None or self._refresh_scheduled:
            return
        self._refresh_scheduled = True
        self.sim.after(self._refresh_interval, self._refresh_tick)

    def _refresh_tick(self) -> None:
        """Periodic refresh charging (paper §5): report each running
        request's usage since the last report to the scheduler."""
        now = self.sim.now
        any_busy = False
        reports = 0
        for worker in self.workers:
            request = worker.request
            if request is None:
                continue
            any_busy = True
            usage = (now - worker.last_report) * self.rate * worker.speed
            if usage > 0.0:
                self.scheduler.refresh(request, usage, now)
                worker.last_report = now
                reports += 1
        trace = self._trace
        if trace is not None:
            registry = trace.registry
            registry.counter("server.refresh_ticks").inc()
            registry.counter("server.refresh_reports").inc(reports)
            registry.gauge("server.busy_workers").set(self.busy_workers)
            registry.gauge("events.cancelled_backlog").set(
                self.sim.cancelled_backlog
            )
            registry.gauge("events.purges").set(self.sim.event_purges)
        self._refresh_scheduled = False
        # Keep ticking while there is work; the timer re-arms on the next
        # submit otherwise, so an idle server costs no events.
        if any_busy or self.scheduler.backlog > 0:
            self._ensure_refresh_timer()
