"""Weighted Fair Queuing over an aggregated thread pool.

WFQ (Demers et al.; Parekh & Gallager [46]) schedules the pending request
with the lowest *virtual finish time*.  On multiple aggregated links this
is the MSFQ algorithm of Blanquer & Özden [8]; following the paper we
"retain the name WFQ in the interest of familiarity" (§2).

Known weakness reproduced here (paper §4, Figure 5c): because small
requests always carry the earliest finish tags, WFQ services all small
tenants in a burst, then all large tenants together, occupying the whole
pool with expensive requests -- a bursty schedule.
"""

from __future__ import annotations

from .vt_base import VirtualTimeScheduler

__all__ = ["WFQScheduler"]


class WFQScheduler(VirtualTimeScheduler):
    """Smallest-finish-tag-first across all backlogged tenants: no
    eligibility gate, finish order (the defaults)."""

    name = "wfq"
