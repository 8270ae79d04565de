"""The lazy-invalidation fluid GPS reference, kept as a test oracle.

This is ``repro.simulator.gps`` as it stood before its heap held one
entry per active flow, unchanged apart from its imports: every arrival
pushes a new ``(empty_at, seq, version, flow)`` entry, superseded
entries stay in the heap until a drain pops them or ``_compact``
rebuilds it, and ``purge_threshold`` sets when that happens.
``tests/test_gps.py`` checks the library's reference against it bit for
bit, at the smallest purge threshold (1) and with compaction off.

The original module docstring follows.

Fluid GPS (Generalized Processor Sharing) reference server.

The paper's service-lag metric compares every scheduler against an ideal
fluid server: "For N threads with r processing rate, we use a reference
GPS system with rate Nr" (§6).  Under GPS, each backlogged flow ``f`` is
served continuously at rate ``C * phi_f / Phi(t)``, where ``Phi(t)`` sums
the weights of flows with backlog.

Implementation: the classic virtual-time formulation.  System virtual
time ``V(t)`` advances at ``C / Phi(t)``; a flow activated at virtual
time ``V`` with backlog ``b`` drains exactly when virtual time reaches
its *virtual emptying time* ``E_f = V + b / phi_f``.  Crucially ``E_f``
is invariant under active-set changes, so flows sit in a lazy min-heap
keyed by ``E_f`` and the whole fluid system advances event-by-event in
``O(log F)`` per arrival/drain.  Cumulative service is then a pure
function of state:

    W_f(t) = arrived_f - backlog_f(t),
    backlog_f(t) = phi_f * (E_f - V(t))   while active, else 0.

This substrate is exact (up to float round-off), not a discretization.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.units import Cost, Rate, SimTime, VirtualTime, Weight

__all__ = ["Arrival", "GPSReference", "DEFAULT_PURGE_THRESHOLD"]

#: Minimum stale backlog before the emptying-time heap is compacted;
#: keeps small references from compacting constantly.
DEFAULT_PURGE_THRESHOLD = 64

#: One replayed arrival: ``(flow_id, cost, now, weight)``.
Arrival = Tuple[str, Cost, SimTime, Weight]


class _Flow:
    __slots__ = ("flow_id", "weight", "arrived", "active", "empty_at", "version")

    def __init__(self, flow_id: str, weight: Weight) -> None:
        self.flow_id = flow_id
        self.weight: Weight = weight
        self.arrived: Cost = 0.0
        self.active = False
        #: Virtual emptying time E_f (valid while active).
        self.empty_at: VirtualTime = 0.0
        #: Heap entry version for lazy invalidation.
        self.version = 0


class GPSReference:
    """Exact fluid weighted processor sharing over the same arrivals.

    Feed it every request arrival (true cost) with :meth:`arrive`, then
    query per-flow cumulative service with :meth:`service` after
    :meth:`advance`-ing to the sample time.
    """

    def __init__(
        self,
        capacity: Rate,
        purge_threshold: int = DEFAULT_PURGE_THRESHOLD,
    ) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        if purge_threshold < 1:
            raise ConfigurationError(
                f"purge_threshold must be >= 1, got {purge_threshold}"
            )
        self._capacity: Rate = float(capacity)
        self._virtual: VirtualTime = 0.0
        self._wallclock: SimTime = 0.0
        self._active_weight: Weight = 0.0
        self._flows: Dict[str, _Flow] = {}
        # Heap entries carry a globally unique sequence number so ties on
        # (empty_at) never fall through to comparing _Flow objects.
        self._heap: List[Tuple[float, int, int, _Flow]] = []
        self._entry_seq = itertools.count()
        # Lazy-invalidation bookkeeping: every re-arrival of an active
        # flow supersedes its previous heap entry; the stale count is
        # exact, and the same outnumber-the-live + threshold heuristic
        # as the event queue bounds the heap at ~2x the active flows.
        self._stale_entries = 0
        self._purge_threshold = purge_threshold
        self._purges = 0

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
    def stale_entries(self) -> int:
        """Superseded heap entries not yet dropped (lazy invalidation)."""
        return self._stale_entries

    @property
    def heap_size(self) -> int:
        return len(self._heap)

    @property
    def purges(self) -> int:
        """Number of heap compaction passes performed so far."""
        return self._purges

    @property
    def purge_threshold(self) -> int:
        return self._purge_threshold

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
        advance = self.advance
        heappush = heapq.heappush
        entry_seq = self._entry_seq
        for flow_id, cost, now, weight in arrivals:
            if cost < 0:
                raise ConfigurationError(f"cost must be >= 0, got {cost}")
            advance(now)
            flow = flows.get(flow_id)
            if flow is None:
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
            if flow.active:
                flow.empty_at += cost / flow.weight
                # The flow's previous heap entry is now superseded.
                self._stale_entries += 1
            else:
                flow.active = True
                self._active_weight += flow.weight
                flow.empty_at = self._virtual + cost / flow.weight
            flow.version += 1
            # _compact rebinds the heap, so read it afresh per record.
            heap = self._heap
            heappush(heap, (flow.empty_at, next(entry_seq), flow.version, flow))
            stale = self._stale_entries
            if stale > self._purge_threshold and stale > len(heap) - stale:
                self._compact()

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
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self.advance(now)
        self._capacity = float(capacity)

    def advance(self, to_time: SimTime) -> None:
        """Evolve the fluid system to wallclock ``to_time``."""
        if to_time < self._wallclock - 1e-12:
            raise SimulationError(
                f"GPS time moved backwards: {to_time} < {self._wallclock}"
            )
        heap = self._heap
        while True:
            # The earliest-draining active flow, skipping stale entries.
            while heap:
                _, _, version, flow = heap[0]
                if flow.active and version == flow.version:
                    break
                heapq.heappop(heap)
                if self._stale_entries > 0:
                    self._stale_entries -= 1
            else:
                # Nothing backlogged: virtual time freezes.
                self._wallclock = max(self._wallclock, to_time)
                return
            dv = flow.empty_at - self._virtual
            dt = dv * self._active_weight / self._capacity
            empty_wallclock = self._wallclock + dt
            if empty_wallclock <= to_time + 1e-15:
                # The flow drains before (or at) the target time.
                self._virtual = flow.empty_at
                self._wallclock = empty_wallclock
                heapq.heappop(heap)
                flow.active = False
                self._active_weight -= flow.weight
                if self._active_weight < 1e-12:
                    self._active_weight = 0.0
                continue
            # Partial advance up to the target time.
            elapsed = to_time - self._wallclock
            if elapsed > 0:
                self._virtual += elapsed * self._capacity / self._active_weight
                self._wallclock = to_time
            return

    # -- internals ------------------------------------------------------------------

    def _compact(self) -> None:
        """Rebuild the heap from the active flows' current entries.

        Unlike the event queue, entry keys are not preserved -- each
        active flow gets a fresh sequence number -- but that cannot
        change results: at most one entry per flow is live, ties on
        ``empty_at`` drain at the same instant, and service is a pure
        function of ``(arrived, empty_at, virtual)``, none of which
        compaction touches.
        """
        self._heap = [
            (flow.empty_at, next(self._entry_seq), flow.version, flow)
            for flow in self._flows.values()
            if flow.active
        ]
        heapq.heapify(self._heap)
        self._stale_entries = 0
        self._purges += 1
