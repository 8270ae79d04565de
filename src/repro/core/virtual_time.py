"""System virtual time for fair queuing over an aggregated thread pool.

Paper §2 ("Fair Queuing Background"): the system maintains a virtual time
``v(t)`` that advances at the rate at which backlogged tenants receive
service.  For ``k`` active tenants of total weight ``Phi`` sharing a pool
of aggregate capacity ``C`` (``num_threads * rate`` cost-units/second),
virtual time advances at ``C / Phi`` units per wallclock second -- e.g.
four equal tenants on two 100-unit/s threads advance ``v`` at 50 units/s,
exactly the example given in the paper.

The clock is piecewise linear; it is advanced lazily whenever the
scheduler observes an event, and its slope changes whenever the active
set (and hence ``Phi``) changes.  When no tenant is active, virtual time
freezes; newly arriving tenants fast-forward their start tags with
``max(S_f, v(now))`` (Figure 7, line 4), so a frozen clock is harmless.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError, SchedulerError
from ..units import Rate, SimTime, VirtualTime, Weight

__all__ = ["VirtualClock"]


class VirtualClock:
    """Piecewise-linear virtual time driven by the active tenant weight.

    Parameters
    ----------
    capacity:
        Aggregate service capacity of the thread pool in cost units per
        second (``num_threads * thread_rate``).

    :class:`~repro.core.vt_base.VirtualTimeScheduler` reads ``_value``
    and ``_last_wallclock`` directly to skip :meth:`advance` when the
    clock already stands at ``now``; only :meth:`advance` checks for
    time moving backwards.
    """

    __slots__ = (
        "_capacity",
        "_value",
        "_last_wallclock",
        "_active_weight",
    )

    def __init__(self, capacity: Rate) -> None:
        if not 0.0 < capacity < math.inf:
            raise ConfigurationError(
                f"capacity must be positive and finite, got {capacity}"
            )
        self._capacity: Rate = float(capacity)
        self._value: VirtualTime = 0.0
        self._last_wallclock: SimTime = 0.0
        self._active_weight: Weight = 0.0

    # -- observation -------------------------------------------------------

    @property
    def capacity(self) -> Rate:
        """Aggregate capacity in cost units per second."""
        return self._capacity

    @property
    def active_weight(self) -> Weight:
        """Sum of weights of currently active tenants."""
        return self._active_weight

    @property
    def value(self) -> VirtualTime:
        """Virtual time at the last :meth:`advance` call."""
        return self._value

    @property
    def rate(self) -> float:
        """Current slope ``dv/dt`` (0 when no tenant is active)."""
        if self._active_weight <= 0.0:
            return 0.0
        return self._capacity / self._active_weight

    # -- mutation -----------------------------------------------------------

    def advance(self, now: SimTime) -> VirtualTime:
        """Advance virtual time to simulated ``now`` and return it.

        ``now`` must be monotonically non-decreasing across calls; the
        discrete-event simulator guarantees this.
        """
        if now < self._last_wallclock - 1e-12:
            raise SchedulerError(
                f"virtual clock moved backwards: {now} < {self._last_wallclock}"
            )
        if now > self._last_wallclock:
            if self._active_weight > 0.0:
                elapsed = now - self._last_wallclock
                self._value += elapsed * self._capacity / self._active_weight
            self._last_wallclock = now
        return self._value

    def add_weight(self, weight: Weight, now: SimTime) -> None:
        """Register an activating tenant.  Call :meth:`advance` first is
        unnecessary -- this method advances internally so the slope change
        takes effect exactly at ``now``."""
        if weight <= 0:
            raise ConfigurationError(f"tenant weight must be positive, got {weight}")
        self.advance(now)
        self._active_weight += weight

    def remove_weight(self, weight: Weight, now: SimTime) -> None:
        """Deregister a deactivating tenant."""
        self.advance(now)
        self._active_weight -= weight
        if self._active_weight < -1e-9:
            raise SchedulerError(
                f"active weight went negative: {self._active_weight}"
            )
        if self._active_weight < 1e-12:
            self._active_weight = 0.0

    def __repr__(self) -> str:
        return (
            f"VirtualClock(v={self._value:.6g}, t={self._last_wallclock:.6g}, "
            f"phi={self._active_weight:g}, C={self._capacity:g})"
        )
