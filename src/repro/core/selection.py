"""Indexed tenant selection: O(log N) amortized scheduling decisions.

The selection primitives in :mod:`repro.core.vt_base` -- the smallest
tenant in the policy's tag order, and the smallest finish tag among the
tenants eligible under a stagger -- are written as linear scans over the
backlogged set.  They are simple and serve as the reference semantics,
but every ``dequeue`` pays O(N) in the number of backlogged tenants,
which caps simulator throughput exactly where the paper's production
regime needs it (hundreds to thousands of concurrently backlogged
tenants; §4 notes tag-based schedulers admit O(log N) implementations
with ordered structures).

:class:`SelectionIndex` maintains the same orderings in binary heaps
with *lazy invalidation* and *deferred maintenance*:

* every heap entry snapshots a tenant's selection key -- ``(finish tag,
  head estimate, head seqno)``, or ``(start tag, head estimate, head
  seqno)`` in the order heap of a start-ordered policy -- together with
  the tenant's ``sel_version`` at push time;
* whenever a tenant's key moves (new head request, start-tag movement,
  estimator update) the scheduler calls :meth:`touch`.  A
  touch is O(1): it bumps ``sel_version`` and appends the tenant to a
  shared *dirty log* -- no heap is pushed yet.  Each maintained
  structure keeps a cursor into that log and syncs lazily, at its next
  query; log records superseded by a newer touch of the same tenant are
  skipped entirely, so back-to-back touches in one dispatch cycle
  (dequeue charge + completion reconciliation) coalesce into a single
  heap push per structure;
* superseded entries already in a heap stay there and are discarded
  when they surface at the top (classic lazy invalidation);
* when a tenant leaves the backlog the scheduler calls :meth:`drop`,
  which only bumps the version -- O(1), no heap surgery.

Every index keeps **one order heap** in the policy's tag order: the
ungated pick (WFQ, SFQ) and the work-conserving fallback of the gated
ones.  Eligibility-gated policies (WF2Q, MSF2Q, 2DFQ) add **one gate heap
plus one ready heap per stagger slot**.  The stagger offsets are sorted
ascending, so the staggered start tag ``e_j(f) = S_f - staggers[j] *
l_head`` is non-increasing in the slot index and eligibility is
*nested*: a tenant eligible on slot ``i`` is eligible on every slot
``j >= i``.  A synced record enters the gate heap once, keyed by its top
gate ``e_{m-1}``.  A query at threshold ``T`` pops every gate entry
keyed ``<= T``, walks it down through every further gate it passes (the
float expression and ``<=`` of the linear scans), and pushes it once
into ``ready[g]`` for its lowest passed gate ``g`` and, if ``g > 0``,
once back into the gate heap keyed by ``e_{g-1}``.  The answer for slot
``i`` is the smallest fresh ``(finish, estimate, seqno)`` among the tops
of ``ready[0..i]``; a copy left in a higher ready heap after its tenant
moved down carries the same key and names the same tenant, so it is
harmless.  A head change thus costs one gate push plus, per drain that
moves it, one ready push and at most one gate push: ~2-3 pushes per
touch on any thread count, and a query compares at most ``i + 1``
ready tops.

The eligibility threshold is system virtual time, which never moves
backwards, so an entry passes each gate at most once per version.

Contract with cost estimators
-----------------------------
Invalidate when the key moves.  The index reads each tenant's key
through the scheduler's cached head key (:attr:`TenantState.head_key
<repro.core.scheduler.TenantState.head_key>`), the same cache the
linear scans and the dequeue charge read, so there is one head-estimate
cache and it is computed at most once per head change.  Every site in
:mod:`repro.core.vt_base` where a key can move goes through its one
invalidation point, ``_touch``, which clears the key and calls
:meth:`touch`; a site where it provably cannot move skips the call.
For the estimate that means two things:

* a queued request's estimate may change *solely* through ``observe()``
  calls for the same tenant (estimators key their state on
  ``(tenant_id, api)``; see :mod:`repro.estimation.base`), which run
  inside ``complete``;
* an estimator whose ``observe`` never moves an estimate declares
  :attr:`CostEstimator.learns <repro.estimation.base.CostEstimator.learns>`
  ``= False`` (the oracle), and ``complete`` then re-files the tenant
  only when its reconciliation charge is nonzero.  Everything else
  keeps the default ``True`` and is re-filed at every completion.

Every estimator in this library satisfies that, provided one estimator
instance serves one scheduler; the linear scans are no escape hatch for
an estimator whose estimates drift spontaneously, because adaptive
selection builds the index whenever the backlog grows.  Such an
estimator needs ``reindex_backlogged()`` whenever its estimates move, as
the fault injector does at each window edge.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import SchedulerError
from ..units import Scalar, VirtualTime
from .scheduler import HeadKey, TenantState

__all__ = ["SelectionIndex"]

#: One lazy-invalidation heap entry.  The *prefix* is the policy's sort
#: key -- ``(finish, estimate, seqno)`` for a finish-ordered order heap
#: and a ready heap, ``(start, estimate, seqno)`` for a start-ordered
#: order heap, ``(staggered start, next gate, start, finish, estimate,
#: seqno)`` for the gate heap -- and every entry ends
#: with the fixed ``(..., sel_version, state)`` suffix the invalidation
#: machinery reads via ``entry[-2]`` / ``entry[-1]``.  Entries are plain
#: tuples (not objects) because heapq compares them lexicographically on
#: the hot path; ``seqno`` (unique per head request) and the version
#: break every tie before the non-comparable ``state`` is reached.
_HeapEntry = Tuple[Union[float, int, "TenantState"], ...]

#: One dirty-log record: the touched tenant and its ``sel_version``
#: after the touch.
_LogRecord = Tuple[TenantState, int]

#: Heaps are compacted (stale entries filtered out, then re-heapified)
#: once they grow past ``max(_COMPACT_MIN, 2 * live_entries)``; amortized
#: O(1) per push, and it bounds memory at O(backlogged tenants) per heap.
_COMPACT_MIN = 128

#: The dirty log is flushed into every structure (and cleared) once it
#: grows past ``max(_LOG_COMPACT_MIN, 4 * records flushed last time)``,
#: bounding its memory at O(backlogged tenants) between rarely-queried
#: structures' syncs.
_LOG_COMPACT_MIN = 256


class SelectionIndex:
    """Lazy-invalidation heap index over the backlogged tenant set.

    Parameters
    ----------
    head_key:
        The scheduler's cached head-key function
        (``VirtualTimeScheduler._head_key``); read when a fresh record
        is synced.
    order:
        Key of the order heap: ``"finish"`` ranks tenants by ``(finish
        tag, head estimate, head seqno)`` (WFQ, and the WF2Q and 2DFQ
        fallback), ``"start"`` by ``(start tag, head estimate, head
        seqno)`` (SFQ, and the MSF2Q fallback).
    staggers:
        One eligibility slot (and ready heap) per entry, all fed by one
        gate heap; slot ``j`` gates on ``S_f - staggers[j] * l_head <=
        threshold``.  WF2Q-style policies pass ``(0.0,)``; 2DFQ passes
        ``(i / n for i in range(n))``; ungated policies pass ``()``.
        Must be sorted ascending -- the gate heap relies on the
        nested-eligibility property that implies.
    """

    __slots__ = (
        "_head_key",
        "_heaps",
        "_limits",
        "_by_start",
        "_gate",
        "_ready",
        "_staggers",
        "_log",
        "_log_limit",
        "_cursor_order",
        "_cursor_gate",
        "_gates",
        "_hist",
        "stale_pops",
        "rebuilds",
        "pushes",
        "touches",
    )

    def __init__(
        self,
        head_key: Callable[[TenantState], HeadKey],
        order: str = "finish",
        staggers: Sequence[Scalar] = (),
    ) -> None:
        self._head_key = head_key
        self._by_start = order == "start"
        # Heap 0 is the order heap; the gate and ready heaps follow.
        self._heaps: List[List[_HeapEntry]] = []
        self._limits: List[int] = []
        self._new_heap()
        self._staggers: Tuple[Scalar, ...] = tuple(staggers)
        if any(
            a > b for a, b in zip(self._staggers, self._staggers[1:])
        ):
            raise SchedulerError(
                "stagger offsets must be sorted ascending (the gate "
                f"heap relies on nested eligibility): {self._staggers}"
            )
        self._gate = self._new_heap() if self._staggers else -1
        self._ready = [self._new_heap() for _ in self._staggers]
        #: Shared dirty log of deferred touches plus one cursor per
        #: maintained structure (the gate heap and its ready heaps count
        #: as one structure: the gate heap is its single entry point).
        self._log: List[_LogRecord] = []
        self._log_limit = _LOG_COMPACT_MIN
        self._cursor_order = 0
        self._cursor_gate = 0
        # Eligibility-count bookkeeping, built on the first
        # eligible_count() call (traced runs only): the lowest gate each
        # fresh tenant entry has passed, and a histogram of those gates.
        # Both live and die with this index, so an adaptive teardown and
        # rebuild can never carry a stale gate over.
        self._gates: Optional[Dict[TenantState, int]] = None
        self._hist: List[int] = []
        # Churn counters (always on): superseded entries discarded at a
        # heap top, compaction rebuilds, entries pushed, and touches
        # received.  pushes/touches is the coalescing ratio.
        self.stale_pops = 0
        self.rebuilds = 0
        self.pushes = 0
        self.touches = 0

    # -- maintenance ---------------------------------------------------------

    def _new_heap(self) -> int:
        self._heaps.append([])
        self._limits.append(_COMPACT_MIN)
        return len(self._heaps) - 1

    def touch(self, state: TenantState) -> None:
        """Mark a backlogged tenant dirty after its head request, start
        tag, or head estimate may have changed.

        O(1): bumps the tenant's ``sel_version`` (invalidating every
        entry pushed earlier *and* every unsynced log record) and
        appends a dirty-log record.  Heap pushes happen at the next
        query of each structure, where consecutive touches of the same
        tenant coalesce into one push.
        """
        state.sel_version += 1
        self._log.append((state, state.sel_version))
        self.touches += 1
        if self._gates is not None:
            self._forget_gate(self._gates, state)
        if len(self._log) >= self._log_limit:
            self._flush_log()

    def drop(self, state: TenantState) -> None:
        """Invalidate every entry of a tenant that left the backlog."""
        state.sel_version += 1
        if self._gates is not None:
            self._forget_gate(self._gates, state)

    def _forget_gate(self, gates: Dict[TenantState, int], state: TenantState) -> None:
        """The tenant's entries just went stale: take it out of the
        eligibility histogram."""
        gate = gates.pop(state, None)
        if gate is not None:
            self._hist[gate] -= 1

    def _sync_order(self) -> None:
        log = self._log
        end = len(log)
        i = self._cursor_order
        if i == end:
            return
        self._cursor_order = end
        by_start = self._by_start
        head_key = self._head_key
        while i < end:
            state, version = log[i]
            i += 1
            if version != state.sel_version:
                continue  # superseded by a later touch (or dropped)
            # A fresh record means no touch since: the cached key and
            # the start tag are still current.
            key = state.head_key or head_key(state)
            if by_start:
                key = (state.start_tag, key[1], key[2])
            self._push(0, key + (version, state))

    def _sync_gate(self) -> None:
        """Feed fresh dirty records into the gate heap, keyed by their
        top gate (largest stagger offset)."""
        log = self._log
        end = len(log)
        i = self._cursor_gate
        if i == end:
            return
        self._cursor_gate = end
        top = len(self._staggers) - 1
        stagger = self._staggers[top]
        head_key = self._head_key
        while i < end:
            state, version = log[i]
            i += 1
            if version != state.sel_version:
                continue
            finish, estimate, seqno = state.head_key or head_key(state)
            start = state.start_tag
            self._push(
                self._gate,
                (
                    start - stagger * estimate,
                    top,
                    start,
                    finish,
                    estimate,
                    seqno,
                    version,
                    state,
                ),
            )

    def _flush_log(self) -> None:
        """Sync every structure to the end of the log, then clear it.

        Bounds log memory; rarely-queried structures (e.g. the order
        heap of a gated policy whose fallback never fires) would
        otherwise pin the log forever.  The next limit adapts to the
        number of records a flush interval accumulates."""
        self._sync_order()
        if self._staggers:
            self._sync_gate()
        live = sum(
            1
            for rec in self._log
            if rec[1] == rec[0].sel_version
        )
        self._log_limit = max(_LOG_COMPACT_MIN, 4 * live)
        self._log.clear()
        self._cursor_order = 0
        self._cursor_gate = 0

    def _push(self, heap_id: int, entry: _HeapEntry) -> None:
        heap = self._heaps[heap_id]
        heapq.heappush(heap, entry)
        self.pushes += 1
        if len(heap) >= self._limits[heap_id]:
            # The suffix layout is fixed: entry[-2] is the sel_version
            # snapshot, entry[-1] the TenantState (see _HeapEntry).
            # In place, so a query holding the list keeps a valid heap.
            heap[:] = [
                e for e in heap
                if e[-2] == e[-1].sel_version  # type: ignore[union-attr]
            ]
            heapq.heapify(heap)
            self._limits[heap_id] = max(_COMPACT_MIN, 2 * len(heap))
            self.rebuilds += 1

    # -- queries -------------------------------------------------------------

    def _peek(self, heap_id: int) -> Optional[_HeapEntry]:
        """Top fresh entry of a heap, discarding superseded ones."""
        heap = self._heaps[heap_id]
        top: Optional[_HeapEntry] = None
        stale = 0
        while heap:
            entry = heap[0]
            # Hot path: the (version, state) suffix is read positionally
            # rather than through typed accessors to keep this loop free
            # of extra function calls (the <5% bench budget).
            if entry[-2] == entry[-1].sel_version:  # type: ignore[union-attr]
                top = entry
                break
            heapq.heappop(heap)
            stale += 1
        if stale:
            self.stale_pops += stale
        return top

    def min_order(self) -> Optional[TenantState]:
        """Backlogged tenant first in the policy's tag order -- the WFQ
        or SFQ decision, and the work-conserving fallback."""
        self._sync_order()
        entry = self._peek(0)
        return entry[-1] if entry is not None else None  # type: ignore[return-value]

    def min_eligible_finish(
        self, slot: int, threshold: VirtualTime
    ) -> Optional[TenantState]:
        """Smallest-finish-tag tenant whose staggered start tag is within
        ``threshold`` for stagger slot ``slot``.

        ``threshold`` must be non-decreasing across calls (system virtual
        time never moves backwards), which is what lets an entry pass
        each gate at most once.  The drain pops every gate entry keyed
        within ``threshold``, walks it down to its lowest passed gate
        ``g`` and files it in ``ready[g]``; a tenant eligible on
        ``slot`` has its lowest passed gate ``<= slot`` (eligibility is
        nested), so the answer is the best fresh top of
        ``ready[0..slot]``.
        """
        self._sync_gate()
        heaps = self._heaps
        staggers = self._staggers
        ready_ids = self._ready
        gates = self._gates
        gate = heaps[self._gate]
        stale = 0
        # Key check first: when the top key is beyond the threshold
        # nothing can pass, fresh or stale (a stale top parked out there
        # is swept up by compaction or once the threshold reaches it).
        # Hot path: positional suffix reads, as in _peek.
        while gate and gate[0][0] <= threshold:  # type: ignore[operator]
            entry = heapq.heappop(gate)
            # entry = (e_g, g, start, finish, estimate, seqno, v, state)
            if entry[-2] != entry[-1].sel_version:  # type: ignore[union-attr]
                stale += 1
                continue
            g: int = entry[1]  # type: ignore[assignment]
            while g:
                key = entry[2] - staggers[g - 1] * entry[4]  # type: ignore[operator]
                if key > threshold:
                    self._push(self._gate, (key, g - 1) + entry[2:])
                    break
                g -= 1
            # Re-key from staggered start to finish tag.
            self._push(ready_ids[g], entry[3:])
            if gates is not None:
                # The tenant's lowest passed gate moves down to g.
                tenant: TenantState = entry[-1]  # type: ignore[assignment]
                hist = self._hist
                passed = gates.get(tenant)
                if passed is not None:
                    hist[passed] -= 1
                gates[tenant] = g
                hist[g] += 1
        best: Optional[_HeapEntry] = None
        for ready_id in ready_ids[: slot + 1]:
            ready = heaps[ready_id]
            while ready:
                top = ready[0]
                if top[-2] == top[-1].sel_version:  # type: ignore[union-attr]
                    # First three fields only: two fresh copies of one
                    # tenant tie there and must not compare states.
                    if best is None or top[:3] < best[:3]:
                        best = top
                    break
                heapq.heappop(ready)
                stale += 1
        if stale:
            self.stale_pops += stale
        return best[-1] if best is not None else None  # type: ignore[return-value]

    def eligible_count(self, slot: int) -> int:
        """Size of the slot-``slot`` eligibility set as of the last
        :meth:`min_eligible_finish` query -- the ``eligible`` field of
        traced ``select`` events.

        Eligibility is nested across the slots, so a fresh tenant is
        eligible on ``slot`` exactly when the lowest gate its entry has
        passed is ``<= slot``: the answer is a prefix sum of the gate
        histogram, O(stagger slots) with no estimator calls.  The
        histogram is built from the ready heaps on the first call and
        maintained from then on."""
        if self._gates is None:
            self._start_gate_counts()
        return sum(self._hist[: slot + 1])

    def _start_gate_counts(self) -> None:
        gates: Dict[TenantState, int] = {}
        # Descending, so each tenant ends at the lowest ready heap that
        # holds a fresh entry of it.
        for j in range(len(self._staggers) - 1, -1, -1):
            for entry in self._heaps[self._ready[j]]:
                state: TenantState = entry[-1]  # type: ignore[assignment]
                if entry[-2] == state.sel_version:
                    gates[state] = j
        hist = [0] * len(self._staggers)
        for gate in gates.values():
            hist[gate] += 1
        self._gates = gates
        self._hist = hist

    # -- introspection -------------------------------------------------------

    @property
    def staggers(self) -> Tuple[Scalar, ...]:
        return self._staggers

    def stats(self) -> Dict[str, int]:
        """Churn counters plus current live occupancy.

        ``stale_pops`` counts superseded entries discarded at a heap top,
        ``rebuilds`` the compaction passes, ``pushes`` the entries ever
        pushed, ``touches`` the touch calls received (pushes/touches is
        the deferred-maintenance coalescing ratio); ``entries`` is the
        summed current heap occupancy (live plus not-yet-surfaced stale).
        Surfaced in traced-run manifests.
        """
        return {
            "stale_pops": self.stale_pops,
            "rebuilds": self.rebuilds,
            "pushes": self.pushes,
            "touches": self.touches,
            "entries": sum(len(heap) for heap in self._heaps),
        }

    def heap_sizes(self) -> Dict[str, int]:
        """Current heap occupancy (monitoring and tests); includes the
        dirty log, which is bounded by the flush limit."""
        sizes = {"order": len(self._heaps[0])}
        if self._gate >= 0:
            sizes["gate"] = len(self._heaps[self._gate])
        for slot, ready_id in enumerate(self._ready):
            sizes[f"ready[{slot}]"] = len(self._heaps[ready_id])
        sizes["log"] = len(self._log)
        return sizes

    def __repr__(self) -> str:
        return (
            f"SelectionIndex(order={'start' if self._by_start else 'finish'!r}, "
            f"staggers={len(self._staggers)})"
        )
