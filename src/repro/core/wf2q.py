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

from typing import Optional, Sequence

from ..units import Scalar
from .vt_base import VirtualTimeScheduler

__all__ = ["WF2QScheduler"]


class WF2QScheduler(VirtualTimeScheduler):
    """Smallest finish tag among tenants whose start tag has arrived;
    the fallback is the smallest finish tag overall (work conserving)."""

    name = "wf2q"

    def _staggers(self, num_threads: int) -> Optional[Sequence[Scalar]]:
        # Stagger 0 on every thread: plain ``S_f <= v(now)`` (``S - 0.0 *
        # l`` is exactly S), so the index keeps a single eligibility slot.
        return (0.0,) * num_threads
