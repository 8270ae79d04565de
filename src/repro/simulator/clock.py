"""The simulation event loop.

A :class:`Simulation` owns the wallclock (``now``, in seconds) and the
event queue, and runs callbacks in timestamp order.  All components --
servers, workload sources, metric samplers -- schedule their activity
through it, which makes every experiment single-threaded, deterministic,
and immune to Python's GIL (see DESIGN.md: the paper itself evaluates in
a discrete-event simulator).
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..units import Duration, SimTime
from .events import EventHandle, EventQueue

__all__ = ["Simulation"]


class Simulation:
    """Discrete-event simulation loop over one :class:`EventQueue`.

    ``now`` is the current simulated wallclock time in seconds, a plain
    attribute that only :meth:`run` advances.  :meth:`at`, :meth:`after`,
    :meth:`cancel` and :meth:`run` are the only ways to schedule and fire
    events.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self.now: SimTime = 0.0
        self._running = False
        self._stopped = False
        self._events_processed = 0

    # -- observation ----------------------------------------------------------

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def cancelled_backlog(self) -> int:
        """Cancelled-but-unpurged entries in the event heap (the memory
        cost of lazy cancellation; exported as an obs gauge)."""
        return self._queue.cancelled_backlog

    @property
    def event_purges(self) -> int:
        """Compaction passes the event heap has performed."""
        return self._queue.purges

    # -- scheduling -------------------------------------------------------------
    #
    # ``at`` and ``after`` push onto the queue's heap directly (one handle,
    # one heappush) instead of through ``EventQueue.push``: they run once
    # per scheduled event, and the queue is this kernel's own structure.

    def at(self, time: SimTime, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        now = self.now
        # Negated comparisons: NaN fails every comparison, so it lands
        # in the error branch instead of firing first with ``now = nan``.
        if not time >= now - 1e-12:
            raise SimulationError(f"event time must be >= now {now}, got {time}")
        if time < now:
            time = now
        queue = self._queue
        handle = EventHandle(time, next(queue._seq), fn, args)
        heapq.heappush(queue._heap, (time, handle.seq, handle))
        queue._live += 1
        return handle

    def after(self, delay: Duration, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        time = self.now + delay
        queue = self._queue
        handle = EventHandle(time, next(queue._seq), fn, args)
        heapq.heappush(queue._heap, (time, handle.seq, handle))
        queue._live += 1
        return handle

    def cancel(self, handle: EventHandle) -> None:
        self._queue.cancel(handle)

    def stop(self) -> None:
        """Stop the loop after the current event returns."""
        self._stopped = True

    # -- execution -----------------------------------------------------------------

    def run(
        self, until: Optional[SimTime] = None, max_events: Optional[int] = None
    ) -> SimTime:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.  Returns the final simulated time.

        When ``until`` is given, time is advanced exactly to ``until`` even
        if the last event fires earlier, so periodic samplers and service
        accounting line up across runs -- unless ``max_events`` ended the
        run while a live event is still due by ``until``: then ``now``
        stays at the last fired event, so the next ``run`` never fires an
        event in the past.  ``max_events`` counts every event this
        simulation has fired, over all ``run`` calls.  A NaN ``until``
        or a negative ``max_events`` raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("simulation loop re-entered")
        if until is None:
            horizon = math.inf
        elif math.isnan(until):  # every `time > until` test would fail
            raise SimulationError("run horizon `until` is NaN")
        else:
            horizon = until
        if max_events is None:
            limit: float = math.inf
        elif max_events < 0:
            raise SimulationError(f"max_events must be >= 0, got {max_events}")
        else:
            limit = max_events
        self._running = True
        self._stopped = False
        # A live top that is due pops inline, with pop_due's bookkeeping
        # (live count, handle marked consumed).  Everything else --
        # a cancelled top, the horizon, an empty heap and its live-count
        # check -- goes through ``pop_due``.  Compaction rebuilds the heap
        # list in place, so ``heap`` stays current.
        queue = self._queue
        heap = queue._heap
        pop_due = queue.pop_due
        heappop = heapq.heappop
        processed = self._events_processed
        try:
            while processed < limit and not self._stopped:
                if heap and not heap[0][2].cancelled and heap[0][0] <= horizon:
                    handle = heappop(heap)[2]
                    queue._live -= 1
                    handle.cancelled = True
                else:
                    handle = pop_due(horizon)
                    if handle is None:
                        break
                self.now = handle.time
                fn, args = handle.fn, handle.args
                handle.fn = None  # free references early
                handle.args = ()
                processed += 1
                self._events_processed = processed
                if fn is None:
                    raise SimulationError(
                        f"popped event at t={handle.time} was already "
                        "consumed (callback reference cleared)"
                    )
                fn(*args)
            if until is not None and self.now < until and not self._stopped:
                due = self._queue.peek_time() if processed >= limit else None
                if due is None or due > until:
                    self.now = until
        finally:
            self._running = False
        return self.now
