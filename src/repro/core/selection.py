"""Indexed tenant selection: one sorted list of head entries.

The selection primitives in :mod:`repro.core.vt_base` -- the first
tenant in the policy's tag order, and the smallest finish tag among the
tenants eligible under a stagger -- are linear scans over the backlogged
set: the reference semantics, at O(N) per ``dequeue``.

:class:`SelectionIndex` files every backlogged tenant exactly once in
**one Python list sorted by key**, each entry ``(finish tag, head
estimate, head seqno, start tag, state)``:

* a query for a stagger walks the list in key order and returns the
  first entry with ``start - stagger * estimate <= threshold`` -- the
  linear scan's float expression and ``<=``, so both paths pick the same
  tenant.  Server-driven runs find one within the first few entries; the
  walk is O(N) only when nothing is eligible, and the work-conserving
  fallback is then ``list[0]``;
* an ungated start-ordered policy (SFQ) files ``(start tag, ...)`` so
  its pick is ``list[0]`` too; a gated one (MSF2Q) files finish tags and
  scans for its rare start-ordered fallback;
* :meth:`touch` (the tenant's key may have moved) removes the tenant's
  entry at once -- ``bisect_left`` plus an identity check -- and queues
  the tenant; the next query files every queued tenant that is still
  backlogged, so touches between two queries (dequeue charge, completion
  reconciliation) cost one filing and the list never holds a stale
  entry.  :meth:`drop` (the tenant left the backlog) removes it.

:attr:`TenantState.sel_entry <repro.core.scheduler.TenantState.sel_entry>`
remembers the filed entry.  An adaptive teardown leaves it behind; the
identity check makes such a leftover harmless to the next index, which
holds no entry that *is* it.

Contract with cost estimators: invalidate when the key moves.  Entries
are filed from the scheduler's cached head key
(:attr:`TenantState.head_key <repro.core.scheduler.TenantState.head_key>`),
the cache the linear scans and the dequeue charge read, and every site
in :mod:`repro.core.vt_base` where a key can move calls ``_touch``,
which clears that cache and calls :meth:`touch`.  An estimate may change
only through ``observe()`` for the same tenant, inside ``complete``
(:attr:`CostEstimator.learns <repro.estimation.base.CostEstimator.learns>`
declares whether it can at all).  An estimator whose estimates move
otherwise needs ``reindex_backlogged()`` -- on either selection path,
since both read the cache -- as the fault injector does at each window
edge.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Dict, List, Optional, Tuple

from ..units import Scalar, VirtualTime
from .scheduler import HeadKey, TenantState

__all__ = ["SelectionIndex"]

#: One filed tenant: ``(order key, head estimate, head seqno, start tag,
#: state)``.  The order key is the finish tag, or the start tag for an
#: ungated start-ordered policy.  ``seqno`` is unique per head request,
#: so two entries never compare equal up to the state.
Entry = Tuple[float, float, int, float, TenantState]


class SelectionIndex:
    """Sorted list of one entry per backlogged tenant.

    Parameters
    ----------
    head_key:
        The scheduler's cached head-key function
        (``VirtualTimeScheduler._head_key``); read when a touched
        tenant is filed.
    order:
        The policy's tag order: ``"finish"`` ranks tenants by ``(finish
        tag, head estimate, head seqno)``, ``"start"`` by ``(start tag,
        head estimate, head seqno)``.
    gated:
        Whether the policy gates on eligibility.  Gated queries need the
        finish order, so a gated start-ordered policy (MSF2Q) files
        finish tags and scans for the start-ordered fallback.
    """

    __slots__ = (
        "_head_key",
        "_by_start",
        "_scan_start",
        "_entries",
        "_dirty",
        "pushes",
        "touches",
    )

    def __init__(
        self,
        head_key: Callable[[TenantState], HeadKey],
        order: str = "finish",
        gated: bool = False,
    ) -> None:
        self._head_key = head_key
        self._by_start = order == "start" and not gated
        self._scan_start = order == "start" and gated
        self._entries: List[Entry] = []
        #: Tenants touched since the last query, waiting to be filed.
        self._dirty: List[TenantState] = []
        # Churn counters (always on): entries filed and touches
        # received; pushes/touches is the coalescing ratio.
        self.pushes = 0
        self.touches = 0

    # -- maintenance ---------------------------------------------------------

    def touch(self, state: TenantState) -> None:
        """Re-file a backlogged tenant whose head request, start tag or
        head estimate may have changed: its entry leaves the list now,
        the new one is filed at the next query."""
        self.touches += 1
        entry = state.sel_entry
        if entry is not None:
            self._remove(entry)
            state.sel_entry = None
        self._dirty.append(state)

    def drop(self, state: TenantState) -> None:
        """Remove the entry of a tenant that left the backlog."""
        entry = state.sel_entry
        if entry is not None:
            self._remove(entry)
            state.sel_entry = None

    def _remove(self, entry: Entry) -> None:
        entries = self._entries
        i = bisect_left(entries, entry)
        # Only this very entry: one left over from a torn-down index
        # names no entry here.
        if i < len(entries) and entries[i] is entry:
            del entries[i]

    def _file(self) -> None:
        """File every queued tenant that is still backlogged and not
        filed yet (a tenant touched twice is queued twice)."""
        entries = self._entries
        head_key = self._head_key
        by_start = self._by_start
        for state in self._dirty:
            if state.sel_entry is not None or not state.queue:
                continue
            finish, estimate, seqno = state.head_key or head_key(state)
            start = state.start_tag
            entry = (start if by_start else finish, estimate, seqno, start, state)
            insort(entries, entry)
            state.sel_entry = entry
            self.pushes += 1
        self._dirty.clear()

    # -- queries -------------------------------------------------------------

    def min_order(self) -> Optional[TenantState]:
        """Backlogged tenant first in the policy's tag order -- the WFQ
        or SFQ decision, and the work-conserving fallback."""
        if self._dirty:
            self._file()
        entries = self._entries
        if not entries:
            return None
        if self._scan_start:
            return min(entries, key=_start_key)[4]
        return entries[0][4]

    def min_eligible_finish(
        self, stagger: Scalar, threshold: VirtualTime
    ) -> Optional[TenantState]:
        """Smallest-key tenant whose staggered start tag ``start -
        stagger * estimate`` is within ``threshold``; ``None`` when no
        tenant is eligible."""
        if self._dirty:
            self._file()
        for entry in self._entries:
            if entry[3] - stagger * entry[1] <= threshold:
                return entry[4]
        return None

    # -- introspection -------------------------------------------------------

    def entries(self) -> List[Entry]:
        """The filed entries in key order, after filing every pending
        touch (tests and monitoring)."""
        if self._dirty:
            self._file()
        return list(self._entries)

    def stats(self) -> Dict[str, int]:
        """Churn counters plus current occupancy, surfaced in run
        manifests: ``pushes`` counts entries filed, ``touches`` the
        touch calls received (pushes/touches is the coalescing ratio),
        ``entries`` the filed entries.  ``stale_pops`` is always 0: the
        list never holds a stale entry."""
        return {
            "stale_pops": 0,
            "pushes": self.pushes,
            "touches": self.touches,
            "entries": len(self._entries),
        }

    def __repr__(self) -> str:
        order = "start" if self._by_start or self._scan_start else "finish"
        return f"SelectionIndex(order={order!r}, entries={len(self._entries)})"


def _start_key(entry: Entry) -> Tuple[float, float, int]:
    """``(start tag, head estimate, head seqno)`` of a finish-keyed entry."""
    return entry[3], entry[1], entry[2]
