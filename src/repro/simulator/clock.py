"""The simulation event loop.

A :class:`Simulation` owns the wallclock (``now``, in seconds) and the
event heap, and runs callbacks in timestamp order.  All components --
servers, workload sources, metric samplers -- schedule their activity
through it, which makes every experiment single-threaded, deterministic,
and immune to Python's GIL (see DESIGN.md: the paper itself evaluates in
a discrete-event simulator).

Each event is one heap entry, the list ``[time, seq, fn, args]``, and
that entry is also its handle; the sequence number keeps events
scheduled for the same instant in FIFO order.  Cancellation is lazy:
:meth:`Simulation.cancel` clears the entry's ``fn`` and the entry stays
in the heap until :meth:`Simulation.run` reaches it and drops it
(DESIGN.md §8, "The event kernel").
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, List, Optional

from ..errors import SimulationError
from ..units import Duration, SimTime

__all__ = ["EventHandle", "Simulation"]

#: A scheduled event: its heap entry ``[time, seq, fn, args]``.  Pass it
#: to :meth:`Simulation.cancel`; ``fn`` is ``None`` once the event is
#: cancelled or has fired.
EventHandle = List[Any]


class Simulation:
    """Discrete-event simulation loop over one event heap.

    ``now`` is the current simulated wallclock time in seconds, a plain
    attribute that only :meth:`run` advances.  :meth:`at`, :meth:`after`,
    :meth:`cancel` and :meth:`run` are the only ways to schedule, cancel
    and fire events.
    """

    def __init__(self) -> None:
        self._heap: List[EventHandle] = []
        self._seq = itertools.count()
        self._dead = 0  # cancelled entries still in the heap
        self.now: SimTime = 0.0
        self._running = False
        self._stopped = False
        self._events_processed = 0

    # -- observation ----------------------------------------------------------

    @property
    def pending_events(self) -> int:
        return len(self._heap) - self._dead

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def cancelled_backlog(self) -> int:
        """Cancelled entries still in the event heap (the memory cost of
        lazy cancellation; exported as an obs gauge)."""
        return self._dead

    # -- scheduling -------------------------------------------------------------

    def at(self, time: SimTime, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        now = self.now
        # Negated comparisons: NaN fails every comparison, so it lands
        # in the error branch instead of firing first with ``now = nan``.
        if not time >= now - 1e-12:
            raise SimulationError(f"event time must be >= now {now}, got {time}")
        if time < now:
            time = now
        entry: EventHandle = [time, next(self._seq), fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def after(self, delay: Duration, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        entry: EventHandle = [self.now + delay, next(self._seq), fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def cancel(self, entry: EventHandle) -> None:
        """Cancel a scheduled event; a no-op if it already fired or was
        cancelled.  Its heap entry stays until :meth:`run` reaches it."""
        if entry[2] is not None:
            entry[2] = None  # free references early
            entry[3] = ()
            self._dead += 1

    def stop(self) -> None:
        """Stop the loop after the current event returns."""
        self._stopped = True

    # -- execution -----------------------------------------------------------------

    def run(
        self, until: Optional[SimTime] = None, max_events: Optional[int] = None
    ) -> SimTime:
        """Process events until the heap drains, ``until`` is reached, or
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
        # One check serves every due top: pop it, and drop it if it was
        # cancelled.  So a dead entry leaves the heap once the loop passes
        # its time, and a top past the horizon ends the loop.
        heap = self._heap
        heappop = heapq.heappop
        processed = self._events_processed
        try:
            while processed < limit and not self._stopped:
                if not (heap and heap[0][0] <= horizon):
                    if not heap and self._dead:
                        # Raise (never assert: python -O would strip the
                        # check) -- this is state corruption.
                        raise SimulationError(
                            f"event heap reports {self._dead} cancelled "
                            "entries but holds none (dead-count/heap divergence)"
                        )
                    break
                entry = heappop(heap)
                fn = entry[2]
                if fn is None:
                    self._dead -= 1
                    continue
                entry[2] = None  # consumed: a later cancel is a no-op
                self.now = entry[0]
                processed += 1
                self._events_processed = processed
                fn(*entry[3])
            if until is not None and self.now < until and not self._stopped:
                if processed >= limit:  # cut short: is a live event still due?
                    while heap and heap[0][0] <= until and heap[0][2] is None:
                        heappop(heap)
                        self._dead -= 1
                    if heap and heap[0][0] <= until:
                        return self.now
                self.now = until
        finally:
            self._running = False
        return self.now
