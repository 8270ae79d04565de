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
irrelevant.  The server keeps the idle, non-crashed workers' indices in
an ascending free list, so a dispatch pass takes them from its high end
and visits no busy worker: a submit while every worker is busy returns
at once.
"""

from __future__ import annotations

import math
from bisect import insort
from itertools import repeat
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
)

from ..core.request import Request, RequestPhase
from ..core.scheduler import Scheduler
from ..errors import ConfigurationError, SimulationError
from ..units import Cost, Duration, Rate, Scalar, SimTime
from .clock import Simulation

if TYPE_CHECKING:  # import cycles: repro.obs and repro.metrics read the simulator
    from ..metrics.store import RunRecord
    from ..obs.tracer import Tracer

__all__ = ["DISPATCH_FIELDS", "DispatchRecord", "ThreadPoolServer", "Worker"]

RequestListener = Callable[[Request], None]


class DispatchRecord(NamedTuple):
    """One executed request in the occupancy log.  The server files
    each one as :data:`DISPATCH_FIELDS` plain values in a flat list
    (:meth:`ThreadPoolServer.attach_record`), and a read of the log
    builds the record.  ``end`` is the request's departure: its
    completion time as predicted at dispatch
    (``start + cost / (rate * speed)``; a stalled worker's request is
    predicted at full speed), re-filed by the rare paths that move it
    (a speed change, an abort, a worker crash).  A request still
    running at the end of a run keeps its latest prediction."""

    thread_id: int
    tenant_id: str
    api: str
    cost: Cost
    start: SimTime
    end: SimTime


#: Values per record in a flat dispatch log, in field order.
DISPATCH_FIELDS = len(DispatchRecord._fields)

#: ``worker.request`` as a C-level getter: :attr:`ThreadPoolServer.
#: busy_workers` counts without a Python frame per worker.
_worker_request = attrgetter("request")


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
        # Indices of the idle, non-crashed workers, ascending: dispatch
        # offers work from the end (descending index).  Every path that
        # frees, occupies, crashes or restores a worker keeps it in step.
        self._free: List[int] = list(range(num_threads))
        self._refresh_interval: Optional[Duration] = refresh_interval
        self._refresh_scheduled = False
        #: True while :meth:`_finish` runs its listeners and the request's
        #: source: a submit made then leaves dispatch to ``_finish``'s
        #: own pass (one dispatch pass per completion).
        self._finishing = False
        #: Attached :class:`repro.obs.Tracer` or ``None``; same
        #: single-attribute-check overhead contract as the schedulers.
        self._trace: Optional["Tracer"] = None
        self._submit_listeners: List[RequestListener] = []
        self._dispatch_listeners: List[RequestListener] = []
        self._complete_listeners: List[RequestListener] = []
        # The attached run record's parts (attach_record), each written
        # behind one check: arrivals and dispatches as flat lists of
        # plain values, and the latencies of completions at or after
        # _latency_from (inf while unattached).
        self._arrivals: Optional[List[Any]] = None
        self._dispatch_log: Optional[List[Any]] = None
        self._latencies: Dict[str, List[Duration]] = {}
        self._latency_from: SimTime = math.inf
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

    def attach_record(self, record: "RunRecord") -> None:
        """Attach the :class:`~repro.metrics.store.RunRecord` a metrics
        collector reads: from now on every submit extends the record's
        arrivals by its ``tenant, cost, now, weight``, every dispatch
        the dispatch log by its :class:`DispatchRecord`'s values (unless
        the record keeps no dispatch log), and every completion at or
        after the record's warmup appends its latency.  Every value is
        a plain str or number, so no per-request container is left for
        the garbage collector to track."""
        self._arrivals = record.arrivals
        self._dispatch_log = record.dispatch_log
        self._latencies = record.latencies
        self._latency_from = record.warmup

    def detach_record(self, record: "RunRecord") -> None:
        """Stop writing into ``record`` (a no-op once another record is
        attached), so the server holds no reference to it."""
        if self._arrivals is record.arrivals:
            self._arrivals = None
            self._dispatch_log = None
            self._latencies = {}
            self._latency_from = math.inf

    def attach_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach a :class:`repro.obs.Tracer`; the server contributes
        refresh-charging counters and a busy-worker gauge to the
        tracer's registry (the decision *events* come from the
        scheduler)."""
        self._trace = tracer

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
        arrivals = self._arrivals
        if arrivals is not None:
            arrivals.extend((request.tenant_id, request.cost, now, request.weight))
        for fn in self._submit_listeners:
            fn(request)
        if not self._finishing:
            self._dispatch_idle()
        if not self._refresh_scheduled and self._refresh_interval is not None:
            self._ensure_refresh_timer()

    # -- observation ---------------------------------------------------------------

    @property
    def capacity(self) -> Rate:
        """Processing rate of the whole pool, ``num_threads * rate``."""
        return self.num_threads * self.rate

    @property
    def busy_workers(self) -> int:
        """Workers holding a request (:attr:`Worker.busy`), stalled or
        frozen ones included.  The least-backlog router reads this for
        every healthy server on every placement."""
        return self.num_threads - list(map(_worker_request, self.workers)).count(None)

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
        tenant_ids = tuple(tenant_ids)
        totals = dict(
            zip(tenant_ids, map(self._completed_cost.get, tenant_ids, repeat(0.0)))
        )
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
        if not 0.0 <= speed < math.inf:
            # NaN would leave a busy worker with no completion event,
            # and inf a NaN progress (0 * inf) at this very instant.
            raise ConfigurationError(
                f"worker speed must be finite and >= 0, got {speed}"
            )
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
            end = now + remaining / (self.rate * speed)
            worker.completion_event = self.sim.at(end, self._finish, worker, request)
            self._refile_end(worker.index, request, end)

    def crash_worker(self, index: int, redispatch: bool = True) -> Optional[Request]:
        """Crash a worker: its in-flight request (if any) loses all
        progress and is cancelled out of the scheduler's accounting; with
        ``redispatch`` (the default) it is immediately re-enqueued -- the
        service-level retry of a request lost to a dead worker -- keeping
        its arrival time and seqno.  The worker accepts no work until
        :meth:`restore_worker`.  Returns the interrupted request."""
        worker = self.workers[index]
        now = self.sim.now
        if not worker.crashed and worker.request is None:
            self._free.remove(index)
        worker.crashed = True
        request = worker.request
        if request is not None:
            if worker.completion_event is not None:
                self.sim.cancel(worker.completion_event)
                worker.completion_event = None
            worker.request = None
            self._refile_end(index, request, now)
            self.scheduler.cancel(request, now)
            if redispatch:
                self.scheduler.enqueue(request, now)
                self._dispatch_idle()
                self._ensure_refresh_timer()
        return request

    def restore_worker(self, index: int) -> None:
        """Bring a crashed worker back at full speed and offer it work."""
        worker = self.workers[index]
        if worker.crashed and worker.request is None:
            insort(self._free, index)
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
        self._free.clear()
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
        self._free[:] = [w.index for w in self.workers if w.request is None]
        self._dispatch_idle()
        self._ensure_refresh_timer()

    def abort(self, request: Request) -> bool:
        """Cancel a submitted request (client-side deadline/cancellation).

        Works in either lifecycle phase: a queued request is removed
        from the scheduler, a running one is torn off its worker (its
        completion event is cancelled and the freed worker is re-offered
        work).  Returns ``False`` for a stale abort (already completed
        or cancelled) without touching the scheduler."""
        phase = request.phase
        if phase != RequestPhase.QUEUED and phase != RequestPhase.RUNNING:
            return False
        now = self.sim.now
        for worker in self.workers:
            if worker.request is request:
                if worker.completion_event is not None:
                    self.sim.cancel(worker.completion_event)
                    worker.completion_event = None
                worker.request = None
                if not worker.crashed:
                    insort(self._free, worker.index)
                self._refile_end(worker.index, request, now)
                cancelled = self.scheduler.cancel(request, now)
                self._dispatch_idle()
                return cancelled
        return self.scheduler.cancel(request, now)

    def abandon(self, request: Request) -> None:
        """Terminal give-up on an aborted request (its client deadline
        expired for the last time): trace it and notify its source, so
        a closed-loop tenant moves on to its next request."""
        trace = self._trace
        if trace is not None:
            trace.fault(
                self.sim.now,
                "abandoned",
                tenant=request.tenant_id,
                seqno=request.seqno,
            )
        source = request.source
        if source is not None:
            source.on_request_complete(request)

    def _refile_end(self, thread_id: int, request: Request, end: SimTime) -> None:
        """Move the dispatch record of the request running on thread
        ``thread_id`` to its new departure ``end``: the fault paths
        above call this, so a fault-free run never does.  The record is
        the thread's latest one; a request dispatched before the record
        was attached has none."""
        log = self._dispatch_log
        if log is None:
            return
        for position in range(len(log) - DISPATCH_FIELDS, -1, -DISPATCH_FIELDS):
            if log[position] == thread_id:
                if (
                    log[position + 1] == request.tenant_id
                    and log[position + 4] == request.dispatch_time
                ):
                    log[position + 5] = end
                return

    # -- internals --------------------------------------------------------------------

    def _dispatch_idle(self) -> None:
        """Offer work to the free workers, highest index first, while
        the scheduler has any.

        All schedulers in this library are work conserving, so a ``None``
        from ``dequeue`` means the backlog is empty and the pass can stop.
        Stalled workers (``speed == 0``) stay free and still accept
        work -- a degraded thread holds its request frozen until its
        speed recovers.  The index leaves the free list before
        :meth:`_start` runs the dispatch listeners, so a pass they start
        sees the worker busy.
        """
        free = self._free
        if not free:
            return
        scheduler = self.scheduler
        if scheduler.backlog == 0:
            return
        now = self.sim.now
        workers = self.workers
        while free:
            index = free[-1]
            request = scheduler.dequeue(index, now)
            if request is None:
                break
            del free[-1]
            self._start(workers[index], request)

    def _start(self, worker: Worker, request: Request) -> None:
        now = self.sim.now
        worker.request = request
        worker.started = now
        worker.last_report = now
        worker.done_work = 0.0
        worker.work_mark = now
        if worker.speed > 0.0:
            end = now + request.cost / (self.rate * worker.speed)
            worker.completion_event = self.sim.at(end, self._finish, worker, request)
        else:
            # Stalled: no completion until set_worker_speed revives it
            # (and re-files the record's end); until then the record
            # holds the healthy worker's end.
            end = now + request.cost / self.rate
            worker.completion_event = None
        log = self._dispatch_log
        if log is not None:
            # Filed at dispatch, so requests still running when the
            # simulation stops -- e.g. multi-second expensive requests --
            # appear in the occupancy log.  The DispatchRecord fields, in
            # order.
            log.extend(
                (
                    request.thread_id,
                    request.tenant_id,
                    request.api,
                    request.cost,
                    now,
                    end,
                )
            )
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
        if not worker.crashed:
            insort(self._free, worker.index)
        worker.completion_event = None
        request.completion_time = now
        self.scheduler.complete(request, final_usage, now)
        self._completed_cost[request.tenant_id] = (
            self._completed_cost.get(request.tenant_id, 0.0) + request.cost
        )
        self._completed_requests += 1
        if now >= self._latency_from:
            latencies = self._latencies.get(request.tenant_id)
            if latencies is None:
                latencies = self._latencies[request.tenant_id] = []
            latencies.append(now - request.arrival_time)
        source = request.source
        # A submit made from here (a closed-loop follow-up) skips its own
        # dispatch pass and the pass below serves it: one pass per
        # completion.  Same-instant events keep their order.  With
        # refresh on, a refresh tick is always pending while a request
        # runs, so the submit's timer check schedules nothing, and the
        # completion event this pass schedules is the next event
        # scheduled, as it was from the skipped pass.  ``finally``: a
        # listener or source that raises must not leave later submits
        # skipping dispatch.
        self._finishing = True
        try:
            for fn in self._complete_listeners:
                fn(request)
            if source is not None:
                source.on_request_complete(request)
        finally:
            self._finishing = False
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
        self._refresh_scheduled = False
        # Keep ticking while there is work; the timer re-arms on the next
        # submit otherwise, so an idle server costs no events.
        if any_busy or self.scheduler.backlog > 0:
            self._ensure_refresh_timer()
