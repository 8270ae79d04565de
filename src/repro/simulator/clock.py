"""The simulation event loop.

A :class:`Simulation` owns the wallclock (``now``, in seconds) and the
event queue, and runs callbacks in timestamp order.  All components --
servers, workload sources, metric samplers -- schedule their activity
through it, which makes every experiment single-threaded, deterministic,
and immune to Python's GIL (see DESIGN.md: the paper itself evaluates in
a discrete-event simulator).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..units import Duration, SimTime
from .events import EventHandle, EventQueue

__all__ = ["Simulation"]


class Simulation:
    """Discrete-event simulation loop over one :class:`EventQueue`."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now: SimTime = 0.0
        self._running = False
        self._stopped = False
        self._events_processed = 0

    # -- observation ----------------------------------------------------------

    @property
    def now(self) -> SimTime:
        """Current simulated wallclock time in seconds."""
        return self._now

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

    def at(self, time: SimTime, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        # Negated comparisons: NaN fails every comparison, so it lands
        # in the error branch instead of firing first with ``now = nan``.
        if not time >= self._now - 1e-12:
            raise SimulationError(
                f"event time must be >= now {self._now}, got {time}"
            )
        return self._queue.push(max(time, self._now), fn, *args)

    def after(self, delay: Duration, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self._queue.push(self._now + delay, fn, *args)

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
        accounting line up across runs.
        """
        if self._running:
            raise SimulationError("simulation loop re-entered")
        self._running = True
        self._stopped = False
        try:
            while self._queue and not self._stopped:
                next_time = self._queue.peek_time()
                if next_time is None:
                    # `while self._queue` guarantees a live event; a None
                    # peek means the queue's live-count drifted from its
                    # heap contents.  Raise (never assert: python -O
                    # would strip the check) -- this is state corruption,
                    # not a schedulable condition.
                    raise SimulationError(
                        "event queue reported pending events but none "
                        "could be peeked (live-count/heap divergence)"
                    )
                if until is not None and next_time > until:
                    break
                if max_events is not None and self._events_processed >= max_events:
                    break
                handle = self._queue.pop()
                self._now = handle.time
                fn, args = handle.fn, handle.args
                handle.cancel()  # mark consumed; frees references
                self._events_processed += 1
                if fn is None:
                    raise SimulationError(
                        f"popped event at t={handle.time} was already "
                        "consumed (callback reference cleared)"
                    )
                fn(*args)
            if until is not None and self._now < until and not self._stopped:
                self._now = until
        finally:
            self._running = False
        return self._now
