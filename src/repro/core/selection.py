"""Tenant selection: one sorted list of head entries.

:class:`SelectionIndex` is the only selection path of
:mod:`repro.core.vt_base`.  It files every backlogged tenant exactly
once in **one Python list sorted by key**, each entry ``(finish tag,
head estimate, head seqno, start tag, state)``:

* a query for a stagger walks the list in key order and returns the
  first entry with ``start - stagger * estimate <= threshold`` -- Figure
  7's eligibility test (lines 20-21), so the first hit is the smallest
  eligible finish tag.  Server-driven runs find one within the first few
  entries; the walk is O(N) only when nothing is eligible, and the
  work-conserving fallback is then ``list[0]``;
* the size of the eligible set (the ``eligible`` field of traced
  ``select`` rows) is counted on the same list with the same test: every
  entry whose finish tag is within the threshold is eligible (for a
  stagger ``s >= 0`` and an estimate ``l >= MIN_COST``, ``start - s * l
  <= start <= start + l / phi = finish`` holds in floats too), so one
  ``bisect_right`` counts that prefix and only the entries after it are
  tested;
* an ungated start-ordered policy (SFQ) files ``(start tag, ...)`` so
  its pick is ``list[0]`` too; a gated one (MSF2Q) files finish tags and
  scans for its rare start-ordered fallback;
* ties on the tag go to the *smaller* estimated cost, then to the head
  request's global sequence number.  The size tie-break matches the
  paper's worked example (Figure 5c: at t=3 the F=4 tie between a4/b4
  and c1/d1 resolves to the small requests, so WFQ runs four A/B rounds
  before the C/D block) and minimizes potential blocking when tags are
  equal.  ``seqno`` is unique per head request, so two entries never
  compare equal up to the state;
* :meth:`touch` (the tenant's key may have moved) is the scheduler's
  single invalidation point.  It removes the tenant's entry --
  ``bisect_left`` plus an identity check -- and, while the tenant is
  backlogged, recomputes its head key from the estimator and files the
  new entry at once with ``insort``.  The list never holds a stale
  entry, so a query never files anything.

:attr:`TenantState.sel_entry <repro.core.scheduler.TenantState.sel_entry>`
remembers the filed entry; an entry the list does not hold raises
:class:`~repro.errors.SchedulerError`.

Contract with cost estimators: invalidate when the key moves.  A touch
sets the tenant's cached head key
(:attr:`TenantState.head_key <repro.core.scheduler.TenantState.head_key>`)
and its entry from one estimate, and every site in
:mod:`repro.core.vt_base` where a key can move calls :meth:`touch`.  An
estimate may change only through ``observe()`` for the same tenant,
inside ``complete``
(:attr:`CostEstimator.learns <repro.estimation.base.CostEstimator.learns>`
declares whether it can at all).  An estimator whose estimates move
otherwise needs ``reindex_backlogged()``, as the fault injector does at
each window edge.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Tuple

from ..errors import SchedulerError
from ..estimation.base import CostEstimator
from ..units import Scalar, VirtualTime
from .scheduler import MIN_COST, TenantState

__all__ = ["SelectionIndex"]

#: One filed tenant: ``(order key, head estimate, head seqno, start tag,
#: state)``.  The order key is the finish tag, or the start tag for an
#: ungated start-ordered policy.
Entry = Tuple[float, float, int, float, TenantState]

_INF = float("inf")


class SelectionIndex:
    """Sorted list of one entry per backlogged tenant.

    Parameters
    ----------
    estimator:
        Cost estimator that prices a touched tenant's head request; the
        scheduler swaps it through this attribute.
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
        "estimator",
        "_by_start",
        "_scan_start",
        "_entries",
        "pushes",
        "touches",
    )

    def __init__(
        self,
        estimator: CostEstimator,
        order: str = "finish",
        gated: bool = False,
    ) -> None:
        self.estimator = estimator
        self._by_start = order == "start" and not gated
        self._scan_start = order == "start" and gated
        self._entries: List[Entry] = []
        # Churn counters (always on): re-filings of backlogged tenants.
        # Filing is eager, so the two are equal.
        self.pushes = 0
        self.touches = 0

    # -- maintenance ---------------------------------------------------------

    def touch(self, state: TenantState) -> None:
        """Invalidate a tenant whose head request, start tag or head
        estimate may have changed: take its entry out and, if it is
        still backlogged, recompute its head key ``(F_f, l_head, seqno)``
        with ``F_f = S_f + l_head / phi_f`` (Figure 7, line 21) and
        ``l_head`` the head estimate clamped to MIN_COST, and file the
        new entry; otherwise clear the key.  Call it whenever the key
        can move and only then: a missed call leaves a stale key and
        entry, a spare one costs a re-filing."""
        entries = self._entries
        entry = state.sel_entry
        if entry is not None:
            i = bisect_left(entries, entry)
            if i == len(entries) or entries[i] is not entry:
                raise SchedulerError(
                    f"tenant {state.tenant_id}'s selection entry is not filed"
                )
            del entries[i]
        queue = state.queue
        if queue:
            head = queue[0]
            estimate = self.estimator.estimate(head)
            if estimate < MIN_COST:
                estimate = MIN_COST
            start = state.start_tag
            finish = start + estimate / state.weight
            seqno = head.seqno
            state.head_key = (finish, estimate, seqno)
            entry = (start if self._by_start else finish, estimate, seqno, start, state)
            insort(entries, entry)
            state.sel_entry = entry
            self.pushes += 1
            self.touches += 1
        else:
            state.head_key = state.sel_entry = None

    # -- queries -------------------------------------------------------------

    def min_order(self) -> Optional[Entry]:
        """Entry of the backlogged tenant first in the policy's tag
        order -- the WFQ or SFQ decision, and the work-conserving
        fallback."""
        entries = self._entries
        if not entries:
            return None
        if self._scan_start:
            return min(entries, key=_start_key)
        return entries[0]

    def min_eligible_finish(
        self, stagger: Scalar, threshold: VirtualTime
    ) -> Optional[Entry]:
        """Smallest-key entry whose staggered start tag ``start -
        stagger * estimate`` is within ``threshold``; ``None`` when no
        tenant is eligible."""
        for entry in self._entries:
            if entry[3] - stagger * entry[1] <= threshold:
                return entry
        return None

    def count_eligible(self, stagger: Scalar, threshold: VirtualTime) -> int:
        """Number of entries :meth:`min_eligible_finish` would accept
        under the same ``stagger`` and ``threshold``: the entries whose
        finish tag is within ``threshold`` (one ``bisect_right``; each
        is eligible, since a finish tag bounds its own staggered start
        tag from above for ``stagger >= 0``), plus those after them that
        pass the test.  Needs a finish-keyed (gated) index."""
        entries = self._entries
        prefix = bisect_right(entries, (threshold, _INF))
        return prefix + len(
            [
                None
                for entry in entries[prefix:]
                if entry[3] - stagger * entry[1] <= threshold
            ]
        )

    # -- introspection -------------------------------------------------------

    def entries(self) -> List[Entry]:
        """A copy of the filed entries in key order (tests, monitoring
        and the invariant watchdog)."""
        return list(self._entries)

    def stats(self) -> Dict[str, int]:
        """Churn counters plus current occupancy, surfaced in run
        manifests: ``pushes`` and ``touches`` both count re-filings of
        backlogged tenants, ``entries`` the filed entries.
        ``stale_pops`` is always 0: the list never holds a stale
        entry."""
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
