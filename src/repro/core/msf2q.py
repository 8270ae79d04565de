"""MSF2Q: multi-server worst-case fair weighted fair queuing.

Blanquer & Özden [8] extended WF2Q to multiple aggregated links and
proved the bounds the paper quotes in §1 (a tenant falls behind by at
most ``N * Lmax`` and gets ahead by at most ``N * L^i_max``).  Their
distinguishing feature over the naive work-conserving WF2Q extension
handles flows whose weight is infeasible for a single link; the paper
found the two "produced nearly identical results" in its setting of many
equal-weight tenants (§6) and omits MSF2Q from the plots.

We implement MSF2Q as WF2Q eligibility with a *smallest-start-tag*
work-conserving fallback (rather than smallest finish tag): when nothing
is eligible, the flow least ahead of its GPS share runs first, which is
the spirit of Blanquer & Özden's bounded-unfairness argument.  Tests
verify it is schedule-identical to WF2Q on the paper's workloads.
"""

from __future__ import annotations

from .wf2q import WF2QScheduler

__all__ = ["MSF2QScheduler"]


class MSF2QScheduler(WF2QScheduler):
    """WF2Q eligibility; falls back to the smallest start tag."""

    name = "msf2q"
    order = "start"
