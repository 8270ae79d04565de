"""Worst-case Fair Weighted Fair Queuing over an aggregated thread pool.

WF2Q (Bennett & Zhang [6]) restricts WFQ to *eligible* requests: a
request may start only once it would have begun service in the reference
GPS system, i.e. ``S(r) <= v(now)``.  Per the paper (§2) we use "WF2Q" to
refer to the naive work-conserving extension to multiple aggregated
links: when worker threads are free and no request is eligible, the
smallest-finish-tag request runs anyway so the pool never idles with
queued work.

Known weakness reproduced here (paper §4, Figure 5d): eligibility is
"all or nothing" -- a request becomes eligible on *every* thread at the
same instant, so when only large requests are eligible they take over
every worker simultaneously and small tenants see no service for periods
proportional to the maximum request size.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..errors import SchedulerError
from ..units import VirtualTime
from .scheduler import TenantState
from .vt_base import VirtualTimeScheduler

__all__ = ["WF2QScheduler"]


class WF2QScheduler(VirtualTimeScheduler):
    """Smallest finish tag among tenants whose start tag has arrived."""

    name = "wf2q"

    def _select(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        # Stagger 0: plain ``S_f <= v(now)`` (``S - 0.0 * l`` is exactly S).
        return self._min_eligible_finish(0.0, vnow)

    # _fallback inherited: min finish tag over everything (work conserving).

    def _index_spec(self) -> Optional[Dict[str, Any]]:
        # One eligibility slot (stagger 0: plain ``S_f <= v(now)``) plus
        # the finish heap backing the work-conserving fallback.
        return {"finish": True, "staggers": (0.0,)}

    def _select_indexed(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        index = self._index
        if index is None:  # dequeue routes here only in indexed mode
            raise SchedulerError("indexed selection invoked without an index")
        return index.min_eligible_finish(0, self._eligibility_threshold(vnow))

    def _trace_eligible_count(self, thread_id: int, vnow: VirtualTime) -> int:
        # Tracing only: |{ f in A : S_f <= v(now) }|, the all-or-nothing
        # eligibility set whose emptiness marks fallback dispatches.  The
        # index answers from its gate histogram (slot 0 is the only slot).
        if self._index is not None:
            return self._index.eligible_count(0)
        return self._eligible_count(0.0, vnow)
