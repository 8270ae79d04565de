"""The paper's worked scheduling examples (Figures 1, 5 and 6).

Four backlogged tenants share two worker threads: A and B send unit-cost
requests, C and D send large requests (cost 4 in Figures 5/6, cost 10 in
Figure 1).  The deterministic sequencer below drives a scheduler exactly
as the paper's tables do -- all tenants enqueue their initial requests
before the first dispatch, and threads are offered work in ascending
index order (W0 first) -- so the resulting schedules can be compared
entry-for-entry with Figures 5c, 5d and 6b:

* WFQ:   W0 = a1 a2 a3 a4 c1 ...  W1 = b1 b2 b3 b4 d1 ...  (bursty)
* WF2Q:  W0 = a1 c1 a2 ...        W1 = b1 d1 b2 ...        (bursty)
* 2DFQ:  W0 = a1 c1 d1 c2 ...     W1 = b1 a2 b2 a3 b3 ...  (smooth)
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..core.registry import make_scheduler
from ..core.request import Request
from ..errors import SchedulerError
from ..obs.session import RunTelemetry

__all__ = ["ScheduledSlot", "worked_example", "render_schedule", "gap_statistics"]


@dataclass(frozen=True)
class ScheduledSlot:
    """One executed request in the example schedule."""

    thread_id: int
    tenant_id: str
    index: int  # 1-based per-tenant request index (a1, a2, ...)
    start: float
    end: float

    @property
    def label(self) -> str:
        return f"{self.tenant_id.lower()}{self.index}"


def worked_example(
    scheduler_name: str,
    horizon: float = 16.0,
    num_threads: int = 2,
    small_cost: float = 1.0,
    large_cost: float = 4.0,
    small_tenants: Tuple[str, ...] = ("A", "B"),
    large_tenants: Tuple[str, ...] = ("C", "D"),
    **scheduler_kwargs,
) -> List[ScheduledSlot]:
    """Run the Figure 5/6 example (or the Figure 1 variant with
    ``large_cost=10``) under the named scheduler.

    The sequencer keeps every tenant backlogged: each tenant always has
    a queued request, new ones being enqueued as old ones dispatch.
    Returns the executed slots sorted by (start, thread).
    """
    scheduler = make_scheduler(
        scheduler_name, num_threads=num_threads, thread_rate=1.0,
        **scheduler_kwargs,
    )
    # Under an active --trace session, record the decision events of the
    # worked example too: fig06's trace is the paper's own 2DFQ table.
    telemetry = RunTelemetry(f"example--{scheduler_name}")
    tracer = telemetry.tracer
    if tracer is not None:
        scheduler.attach_tracer(tracer)
        estimator = getattr(scheduler, "estimator", None)
        if estimator is not None:
            estimator.attach_tracer(tracer)
    costs = {t: small_cost for t in small_tenants}
    costs.update({t: large_cost for t in large_tenants})
    tenants = list(small_tenants) + list(large_tenants)
    counters = {t: itertools.count(1) for t in tenants}
    indices: Dict[int, int] = {}

    def enqueue(tenant: str, now: float) -> None:
        request = Request(tenant_id=tenant, cost=costs[tenant], api="example")
        indices[request.seqno] = next(counters[tenant])
        request.arrival_time = now
        scheduler.enqueue(request, now)

    def manifest() -> Dict[str, Any]:
        return {
            "config": {
                "horizon": horizon,
                "num_threads": num_threads,
                "small_cost": small_cost,
                "large_cost": large_cost,
                "small_tenants": list(small_tenants),
                "large_tenants": list(large_tenants),
            },
            "scheduler": {
                "name": scheduler.name,
                "class": type(scheduler).__name__,
                "num_threads": num_threads,
            },
        }

    with telemetry.exporting_aborts(manifest):
        # All tenants enqueue their first requests before any dispatch,
        # in A, B, C, D order -- the premise of the paper's tables.
        for tenant in tenants:
            enqueue(tenant, 0.0)

        # Event loop over thread availability; ties resolved by thread
        # index ascending (W0 dequeues first, as in the paper's figures).
        # Completions are deferred onto a heap and delivered in time
        # order so the scheduler's virtual clock only ever moves forward.
        free_heap = [(0.0, i) for i in range(num_threads)]
        heapq.heapify(free_heap)
        completions: List[Tuple[float, int, Request]] = []
        slots: List[ScheduledSlot] = []
        while free_heap:
            now, thread_id = heapq.heappop(free_heap)
            if now >= horizon:
                continue
            while completions and completions[0][0] <= now:
                end_time, _, done = heapq.heappop(completions)
                scheduler.complete(done, done.cost, end_time)
            request = scheduler.dequeue(thread_id, now)
            if request is None:
                # The sequencer re-enqueues each tenant on dispatch, so
                # every tenant stays backlogged; a None dequeue means the
                # scheduler under test broke work conservation.  Raise
                # instead of asserting -- python -O strips asserts.
                raise SchedulerError(
                    f"{scheduler.name} returned no request with all tenants "
                    "backlogged (work-conservation violation)"
                )
            end = now + request.cost  # thread rate is 1 unit/second
            slots.append(
                ScheduledSlot(
                    thread_id=thread_id,
                    tenant_id=request.tenant_id,
                    index=indices[request.seqno],
                    start=now,
                    end=end,
                )
            )
            # Keep the tenant backlogged and finish the request at `end`.
            enqueue(request.tenant_id, now)
            heapq.heappush(completions, (end, request.seqno, request))
            heapq.heappush(free_heap, (end, thread_id))
    slots.sort(key=lambda s: (s.start, s.thread_id))
    telemetry.export(manifest)
    return slots


def render_schedule(
    slots: List[ScheduledSlot], num_threads: int = 2, horizon: float = 16.0
) -> List[str]:
    """ASCII rendering, one line per thread, matching the paper's layout:

    ``W0 | a1 c1   d1   c2 ...``
    """
    lines = []
    for thread in range(num_threads):
        entries = [s.label for s in slots if s.thread_id == thread and s.start < horizon]
        lines.append(f"W{thread} | " + " ".join(entries))
    return lines


def gap_statistics(
    slots: List[ScheduledSlot], tenant_id: str
) -> Tuple[float, float]:
    """(mean, max) gap between consecutive request starts of one tenant
    -- the smooth-vs-bursty criterion of Figure 1: the smooth schedule
    has a max gap of ~1 s for tenant A, the bursty one ~10 s."""
    starts = sorted(s.start for s in slots if s.tenant_id == tenant_id)
    if len(starts) < 2:
        return (0.0, 0.0)
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    return (sum(gaps) / len(gaps), max(gaps))
