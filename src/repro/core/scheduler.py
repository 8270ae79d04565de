"""Scheduler interface and shared per-tenant state.

A scheduler in this library is the object sitting between the admission
queue and the worker threads of a shared multi-tenant process (paper §2):
incoming requests are enqueued into logical per-tenant queues, and each
time a worker thread goes idle it asks the scheduler to pick the next
request *for that specific thread* -- the thread index matters, because
2DFQ deliberately makes eligibility thread-dependent.

The contract with the simulator's :class:`~repro.simulator.server.ThreadPoolServer`:

1. ``enqueue(request, now)`` on arrival;
2. ``dequeue(thread_id, now)`` whenever thread ``thread_id`` is idle;
   returns a request to execute or ``None`` if nothing is queued;
3. ``refresh(request, usage, now)`` periodically while the request runs,
   reporting the resource usage measured since the previous report
   (refresh charging, paper §5);
4. ``complete(request, usage, now)`` exactly once at completion with the
   final usage increment (retroactive charging, paper §5);
5. ``cancel(request, now)`` when a queued or running request is removed
   before completion (client deadline, worker crash).  Cancellation
   refunds every charge the scheduler applied, so a cancelled request
   leaves the virtual-time state as if it had never been dispatched,
   and is idempotent: cancelling a DONE or already-CANCELLED request is
   a no-op returning ``False``.

All schedulers are *work conserving*: ``dequeue`` returns a request
whenever any request is queued (paper §2, "Desirable Properties").
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from typing import TYPE_CHECKING, ClassVar, Deque, Dict, Optional, Tuple

from ..errors import ConfigurationError, SchedulerError
from ..units import Cost, Rate, SimTime, VirtualTime, Weight
from .request import Request, RequestPhase

if TYPE_CHECKING:  # import cycles: repro.obs is instrumented *by* core
    from ..obs.tracer import Tracer
    from .selection import Entry

__all__ = ["Scheduler", "TenantState", "MIN_COST", "HeadKey"]

#: Lower bound applied to every cost estimate so zero-cost requests can
#: never produce zero-width virtual-time slots (and divide-by-zero in
#: downstream bookkeeping).
MIN_COST = 1e-9

#: A backlogged tenant's selection key ``(finish tag, clamped head
#: estimate, head seqno)``; see :attr:`TenantState.head_key`.
HeadKey = Tuple[float, float, int]


class TenantState:
    """Mutable per-tenant scheduling state shared by all schedulers.

    Attributes
    ----------
    start_tag:
        The tenant's virtual start time ``S_f`` (Figure 7): the virtual
        time at which its *next* request would begin service under GPS.
    queue:
        FIFO of the tenant's pending requests.  Fair queuing preserves
        arrival order within a flow.
    running:
        Number of the tenant's requests currently executing on workers.
    active:
        Whether the tenant currently contributes weight to the virtual
        clock (has queued or running work).
    sel_entry:
        The tenant's entry in the sorted list of a
        :class:`~repro.core.selection.SelectionIndex`, ``None`` while it
        is not filed.  Owned by the index; an entry left over from a
        torn-down index names nothing in the next one.  Schedulers
        running without an index never touch it.
    head_key:
        Cached :data:`HeadKey` of the head request, ``None`` while
        unknown.  Owned by :class:`~repro.core.vt_base.VirtualTimeScheduler`,
        which fills it lazily and clears it wherever the head, the start
        tag or the head estimate may change.
    """

    __slots__ = (
        "tenant_id",
        "weight",
        "queue",
        "start_tag",
        "running",
        "active",
        "sel_entry",
        "head_key",
    )

    def __init__(self, tenant_id: str, weight: Weight) -> None:
        if not 0.0 < weight < math.inf:
            raise ConfigurationError(
                f"tenant weight must be positive and finite, got {weight}"
            )
        self.tenant_id = tenant_id
        self.weight: Weight = weight
        self.queue: Deque[Request] = deque()
        self.start_tag: VirtualTime = 0.0
        self.running = 0
        self.active = False
        self.sel_entry: Optional[Entry] = None
        self.head_key: Optional[HeadKey] = None

    @property
    def backlogged(self) -> bool:
        """True when the tenant has at least one queued request."""
        return bool(self.queue)

    def __repr__(self) -> str:
        return (
            f"TenantState({self.tenant_id}, S={self.start_tag:.6g}, "
            f"queued={len(self.queue)}, running={self.running})"
        )


class Scheduler(ABC):
    """Abstract base class for multi-thread request schedulers."""

    #: Registry name; subclasses override.
    name: ClassVar[str] = "scheduler"

    def __init__(self, num_threads: int, thread_rate: Rate = 1.0) -> None:
        if num_threads < 1:
            raise ConfigurationError(f"num_threads must be >= 1, got {num_threads}")
        if not 0.0 < thread_rate < math.inf:
            raise ConfigurationError(
                f"thread_rate must be positive and finite, got {thread_rate}"
            )
        self._num_threads = int(num_threads)
        self._thread_rate = float(thread_rate)
        self._tenants: Dict[str, TenantState] = {}
        #: Number of queued (not yet dispatched) requests.  A plain
        #: attribute, not a property: the server reads it on every
        #: dispatch pass.  Only the scheduler writes it.
        self.backlog = 0
        self._completed = 0
        self._cancelled = 0
        #: Attached :class:`repro.obs.Tracer`, or ``None`` (the default).
        #: Instrumented subclasses guard every emission site with a single
        #: ``if self._trace is not None`` check -- the whole disabled-mode
        #: overhead contract (see :mod:`repro.obs.tracer`).
        self._trace: Optional["Tracer"] = None

    # -- introspection -------------------------------------------------------

    @property
    def num_threads(self) -> int:
        return self._num_threads

    @property
    def thread_rate(self) -> Rate:
        return self._thread_rate

    @property
    def capacity(self) -> Rate:
        """Aggregate capacity of the pool in cost units per second."""
        return self._num_threads * self._thread_rate

    @property
    def completed_count(self) -> int:
        return self._completed

    @property
    def cancelled_count(self) -> int:
        return self._cancelled

    def tenant_state(self, tenant_id: str) -> Optional[TenantState]:
        """Expose per-tenant state (monitoring and tests)."""
        return self._tenants.get(tenant_id)

    def tenants(self) -> Dict[str, TenantState]:
        """All tenants ever seen, keyed by id (read-only by convention)."""
        return self._tenants

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The attached tracer, or ``None`` when tracing is off."""
        return self._trace

    def attach_tracer(self, tracer: Optional["Tracer"]) -> None:
        """Attach a :class:`repro.obs.Tracer` (or detach with ``None``).

        A disabled tracer is stored as ``None`` so the hot path keeps
        its single-attribute-check fast path; only the virtual-time
        schedulers emit events (FIFO and round robin accept the attachment but
        have no instrumented decision points).
        """
        self._trace = (
            tracer if tracer is not None and tracer.enabled else None
        )

    # -- scheduler contract ---------------------------------------------------

    @abstractmethod
    def enqueue(self, request: Request, now: SimTime) -> None:
        """Admit ``request`` at simulated time ``now``."""

    @abstractmethod
    def dequeue(self, thread_id: int, now: SimTime) -> Optional[Request]:
        """Pick the next request for worker ``thread_id``, or ``None``."""

    def refresh(self, request: Request, usage: Cost, now: SimTime) -> None:
        """Report interim resource usage of a running request (default: ignore)."""
        request.reported_usage += usage

    def complete(self, request: Request, usage: Cost, now: SimTime) -> None:
        """Report completion with the final usage increment."""
        if request.phase == RequestPhase.CANCELLED:
            return  # stale completion racing a cancel: already refunded
        request.reported_usage += usage
        request.phase = RequestPhase.DONE
        self._completed += 1

    def cancel(self, request: Request, now: SimTime) -> bool:
        """Remove a queued or running request, refunding every charge.

        Mirrors the reconciliation ``complete()`` performs, but in the
        other direction: the tenant's virtual-time state is
        restored to what it would be had the request never been
        dispatched.  Returns ``True`` if the request was cancelled and
        ``False`` for a stale cancel (request already DONE or CANCELLED,
        or unknown to this scheduler) -- so cancel/complete races are
        harmless in either order.

        The cancelled request's charging bookkeeping is reset so it can
        be re-submitted (crash re-dispatch, deadline retry) with its
        identity -- seqno, arrival time -- intact.
        """
        phase = request.phase
        if phase != RequestPhase.QUEUED and phase != RequestPhase.RUNNING:
            return False
        state = self._tenants.get(request.tenant_id)
        if state is None:
            return False
        if phase == RequestPhase.QUEUED:
            if not self._cancel_queued(state, request, now):
                return False
            self.backlog -= 1
        else:
            if not self._cancel_running(state, request, now):
                return False
        request.phase = RequestPhase.CANCELLED
        request.charged_cost = 0.0
        request.credit = 0.0
        request.reported_usage = 0.0
        self._cancelled += 1
        trace = self._trace
        if trace is not None:
            trace.cancel(
                now,
                self._trace_virtual_time(),
                state.tenant_id,
                seqno=request.seqno,
                api=request.api,
                was_running=phase == RequestPhase.RUNNING,
                backlog=self.backlog,
            )
        return True

    # -- cancellation hooks ----------------------------------------------------

    def _cancel_queued(
        self, state: TenantState, request: Request, now: SimTime
    ) -> bool:
        """Remove a queued request from its tenant queue.  Subclasses
        with auxiliary structures (global FIFO queue, round-robin ring,
        selection index) override and clean those up too."""
        try:
            state.queue.remove(request)
        except ValueError:
            return False
        return True

    def _cancel_running(
        self, state: TenantState, request: Request, now: SimTime
    ) -> bool:
        """Refund the dispatch-time charge of a running request.  The
        base schedulers (FIFO, round-robin) charge nothing at dispatch,
        so there is nothing to undo."""
        return True

    def _trace_virtual_time(self) -> Optional[VirtualTime]:
        """Virtual time recorded in cancel trace events (``None`` for
        schedulers without a virtual clock)."""
        return None

    # -- shared helpers --------------------------------------------------------

    def _state_for(self, request: Request) -> TenantState:
        """Fetch or create the tenant state for a request's tenant."""
        state = self._tenants.get(request.tenant_id)
        if state is None:
            state = TenantState(request.tenant_id, request.weight)
            self._tenants[request.tenant_id] = state
        return state

    def _check_thread(self, thread_id: int) -> None:
        if not 0 <= thread_id < self._num_threads:
            raise SchedulerError(
                f"thread_id {thread_id} outside pool of {self._num_threads}"
            )

    def _note_enqueued(self, request: Request) -> None:
        request.phase = RequestPhase.QUEUED
        self.backlog += 1

    def _note_dispatched(self, request: Request, thread_id: int, now: SimTime) -> None:
        request.phase = RequestPhase.RUNNING
        request.thread_id = thread_id
        request.dispatch_time = now
        self.backlog -= 1

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(threads={self._num_threads}, "
            f"rate={self._thread_rate:g}, backlog={self.backlog})"
        )
