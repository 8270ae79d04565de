"""Fluid GPS (Generalized Processor Sharing) reference server.

The paper's service-lag metric compares every scheduler against an ideal
fluid server: "For N threads with r processing rate, we use a reference
GPS system with rate Nr" (§6).  Under GPS, each backlogged flow ``f`` is
served continuously at rate ``C * phi_f / Phi(t)``, where ``Phi(t)`` sums
the weights of flows with backlog.

Implementation: the classic virtual-time formulation.  System virtual
time ``V(t)`` advances at ``C / Phi(t)``; a flow activated at virtual
time ``V`` with backlog ``b`` drains exactly when virtual time reaches
its *virtual emptying time* ``E_f = V + b / phi_f``.  ``E_f`` is
invariant under active-set changes, so the fluid system advances from
drain to drain in ``O(log F)`` each, and cumulative service is a pure
function of state:

    W_f(t) = arrived_f - backlog_f(t),
    backlog_f(t) = phi_f * (E_f - V(t))   while active, else 0.

The heap holds exactly one entry ``(E, seq, flow)`` per active flow,
pushed when the flow activates.  Every positive-cost arrival draws a
fresh ``flow.seq`` and raises ``flow.empty_at``; an arrival to an active
flow pushes nothing, so its entry's key can go stale, but only ever
low.  :meth:`GPSReference.advance` tests the top entry's own key: the
wallclock of a drain, ``t + (E - V) * Phi / C``, is monotone in ``E``,
so if the top cannot drain by the target time, no flow can.  A top that
could drain but is stale (``seq != flow.seq``) is re-filed under the
flow's current ``(empty_at, seq)`` and the test repeats; an up-to-date
top drains.  The drain order and every float operation are those of a
heap keyed by each flow's current ``(E_f, seq)``, ties included.

This substrate is exact (up to float round-off), not a discretization.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, Iterable, List, Tuple

from ..errors import ConfigurationError, SimulationError
from ..units import Cost, Rate, SimTime, VirtualTime, Weight

__all__ = ["Arrival", "GPSReference"]

#: One replayed arrival: ``(flow_id, cost, now, weight)``.
Arrival = Tuple[str, Cost, SimTime, Weight]


class _Flow:
    __slots__ = ("flow_id", "weight", "arrived", "active", "empty_at", "seq")

    def __init__(self, flow_id: str, weight: Weight) -> None:
        self.flow_id = flow_id
        self.weight: Weight = weight
        self.arrived: Cost = 0.0
        self.active = False
        #: Virtual emptying time E_f (valid while active).
        self.empty_at: VirtualTime = 0.0
        #: Sequence number of the flow's latest positive-cost arrival;
        #: its heap entry is up to date when the entry carries it.
        self.seq = -1


def _check_capacity(capacity: Rate) -> None:
    if not 0.0 < capacity < math.inf:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")


class GPSReference:
    """Exact fluid weighted processor sharing over the same arrivals.

    Feed it every request arrival (true cost) with :meth:`arrive`, then
    query per-flow cumulative service with :meth:`service` after
    :meth:`advance`-ing to the sample time.  A cost must be finite and
    ``>= 0``, a weight finite and ``> 0``, a capacity finite and
    ``> 0``, and time must not move backwards (NaN included); anything
    else raises where it enters.
    """

    def __init__(self, capacity: Rate) -> None:
        _check_capacity(capacity)
        self._capacity: Rate = float(capacity)
        self._virtual: VirtualTime = 0.0
        self._wallclock: SimTime = 0.0
        self._active_weight: Weight = 0.0
        self._flows: Dict[str, _Flow] = {}
        # One entry per active flow; the sequence number breaks ties on
        # empty_at, so entries never fall through to comparing _Flows.
        self._heap: List[Tuple[float, int, _Flow]] = []
        self._entry_seq = itertools.count()

    # -- observation -----------------------------------------------------------

    @property
    def capacity(self) -> Rate:
        return self._capacity

    @property
    def virtual_time(self) -> VirtualTime:
        return self._virtual

    @property
    def now(self) -> SimTime:
        return self._wallclock

    @property
    def active_weight(self) -> Weight:
        return self._active_weight

    @property
    def heap_size(self) -> int:
        """Heap entries: exactly the number of active flows."""
        return len(self._heap)

    @property
    def purges(self) -> int:
        """Always 0: the heap is never compacted.  It stays because the
        e2e benchmark's traced pass (``benchmarks/e2e/tracing.py``)
        reads it."""
        return 0

    def backlog(self, flow_id: str) -> Cost:
        """Remaining fluid backlog of a flow at the current time."""
        flow = self._flows.get(flow_id)
        if flow is None or not flow.active:
            return 0.0
        return max(0.0, flow.weight * (flow.empty_at - self._virtual))

    def service(self, flow_id: str) -> Cost:
        """Cumulative service W_f(0, t) delivered to a flow by GPS."""
        return self.services((flow_id,))[flow_id]

    def services(self, flow_ids: Iterable[str]) -> Dict[str, Cost]:
        """Cumulative service of every flow in ``flow_ids``, keyed in
        their order: :meth:`service` for many flows in one call."""
        flows = self._flows
        virtual = self._virtual
        totals: Dict[str, Cost] = {}
        for flow_id in flow_ids:
            flow = flows.get(flow_id)
            if flow is None:
                totals[flow_id] = 0.0
            elif flow.active:
                # The same value as arrived - backlog(flow_id).
                backlog = flow.weight * (flow.empty_at - virtual)
                totals[flow_id] = flow.arrived - (backlog if backlog > 0.0 else 0.0)
            else:
                totals[flow_id] = flow.arrived - 0.0
        return totals

    # -- driving ------------------------------------------------------------------

    def arrive(
        self, flow_id: str, cost: Cost, now: SimTime, weight: Weight = 1.0
    ) -> None:
        """Register the arrival of ``cost`` units of work for a flow: a
        one-record :meth:`replay`.

        A flow's weight is fixed at its first arrival: re-arriving with
        a different ``weight`` raises
        :class:`~repro.errors.ConfigurationError` instead of silently
        keeping the old weight -- a tenant whose weight changed mid-run
        would otherwise diverge from the fair-share reference with no
        signal.
        """
        self.replay(((flow_id, cost, now, weight),))

    def replay(self, arrivals: Iterable[Arrival]) -> None:
        """Register ``(flow_id, cost, now, weight)`` arrivals in order.

        Each arrival advances the fluid system to its ``now`` first, so
        a batch replayed later leaves exactly the state (bit for bit)
        that arriving each record in turn would have; a metrics
        collector buffers a sample interval's arrivals and replays them
        at the sample.  Raises like :meth:`arrive` at the first bad
        record, with the records before it applied.
        """
        flows = self._flows
        heap = self._heap
        advance = self.advance
        entry_seq = self._entry_seq
        inf = math.inf
        for flow_id, cost, now, weight in arrivals:
            if not 0.0 <= cost < inf:
                raise ConfigurationError(f"cost must be >= 0, got {cost}")
            advance(now)
            flow = flows.get(flow_id)
            if flow is None:
                if not 0.0 < weight < inf:
                    raise ConfigurationError(
                        f"flow {flow_id!r} weight must be positive and finite, "
                        f"got {weight}"
                    )
                flow = _Flow(flow_id, weight)
                flows[flow_id] = flow
            elif weight != flow.weight:
                raise ConfigurationError(
                    f"flow {flow_id!r} re-arrived with weight {weight}, but its "
                    f"weight is {flow.weight}; GPS flow weights are fixed at "
                    "first arrival (mid-run weight changes are unsupported)"
                )
            flow.arrived += cost
            if cost == 0:
                continue
            flow.seq = next(entry_seq)
            if flow.active:
                # The flow's entry stays; advance re-files it if needed.
                flow.empty_at += cost / flow.weight
            else:
                flow.active = True
                self._active_weight += flow.weight
                flow.empty_at = self._virtual + cost / flow.weight
                heapq.heappush(heap, (flow.empty_at, flow.seq, flow))

    def set_capacity(self, capacity: Rate, now: SimTime) -> None:
        """Change the fluid server's rate from wallclock ``now`` on.

        The fleet-wide GPS reference calls this when the healthy
        capacity changes (a server crash is detected, or a crashed
        server comes back).  The system is first advanced to ``now`` at
        the old rate, then the new rate takes over -- exact, because a
        flow's virtual emptying time ``E_f = V + b / phi_f`` does not
        depend on capacity (capacity only sets the wallclock *speed* of
        virtual time, ``dt = dv * Phi / C``), so pending drains keep
        their virtual schedule and simply play out faster or slower.
        """
        _check_capacity(capacity)
        self.advance(now)
        self._capacity = float(capacity)

    def advance(self, to_time: SimTime) -> None:
        """Evolve the fluid system to wallclock ``to_time``."""
        if not to_time >= self._wallclock - 1e-12:
            raise SimulationError(
                f"GPS time moved backwards: {to_time} < {self._wallclock}"
            )
        heap = self._heap
        while heap:
            empty_at, seq, flow = heap[0]
            dv = empty_at - self._virtual
            dt = dv * self._active_weight / self._capacity
            empty_wallclock = self._wallclock + dt
            if empty_wallclock > to_time + 1e-15:
                # Not even the top drains: partial advance to the target.
                elapsed = to_time - self._wallclock
                if elapsed > 0:
                    self._virtual += elapsed * self._capacity / self._active_weight
                    self._wallclock = to_time
                return
            if seq != flow.seq:
                # A stale key: re-file the flow under its current one.
                heapq.heapreplace(heap, (flow.empty_at, flow.seq, flow))
                continue
            # The flow drains before (or at) the target time.
            self._virtual = empty_at
            self._wallclock = empty_wallclock
            heapq.heappop(heap)
            flow.active = False
            self._active_weight -= flow.weight
            if self._active_weight < 1e-12:
                self._active_weight = 0.0
        # Nothing backlogged: virtual time freezes.
        self._wallclock = max(self._wallclock, to_time)
