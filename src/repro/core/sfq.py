"""Start-time Fair Queuing over an aggregated thread pool.

SFQ (Goyal et al. [23]) schedules the request with the smallest *start*
tag.  Its classic appeal is that the size of a packet is not needed
before transmitting it -- the start tag only depends on previously
observed sizes.  In our framework the charge applied at dispatch still
uses the estimator (with oracle costs this matches classic SFQ exactly,
since the size is folded into the *next* start tag).

The paper implemented SFQ and found its schedules "nearly identical" to
WFQ in this setting because the simulated server is not variable-rate
(§6); we keep it for completeness and verify that observation in tests.
"""

from __future__ import annotations

from .vt_base import VirtualTimeScheduler

__all__ = ["SFQScheduler"]


class SFQScheduler(VirtualTimeScheduler):
    """Smallest-start-tag-first across all backlogged tenants: no
    eligibility gate, start order."""

    name = "sfq"
    order = "start"
