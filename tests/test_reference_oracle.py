"""The scheduler core against the independent fair-queuing oracle.

``tests/reference/fair_queue_oracle.py`` implements known-cost WFQ, WF2Q
and 2DFQ straight from the paper and shares no code with ``repro.core``.
Seeded random closed-loop workloads (2-8 threads, up to 40 tenants,
costs from {1, 2, 4, 16}, think times that let tenants go idle and come
back) drive both through the same event loop; the dispatch sequences
``(time, thread, tenant, seqno)`` and the virtual time at every dispatch
must be identical, on the linear scan, the selection index, and the
adaptive mode that switches between them.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

import pytest

from repro.core import make_scheduler
from repro.core.request import Request
from repro.simulator.rng import make_rng

from conftest import force_selection
from reference.fair_queue_oracle import POLICIES, FairQueueOracle

COSTS = (1.0, 2.0, 4.0, 16.0)
THINK_TIMES = (0.0, 0.0, 0.0, 0.5, 3.0)
DISPATCHES = 400

#: One dispatch: (time, thread, tenant, seqno in submission order).
Row = Tuple[float, int, str, int]


class CoreAdapter:
    """Gives a ``repro.core`` scheduler the oracle's call shape."""

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler
        self.requests: Dict[int, Request] = {}  # submission index -> request
        self.index_of: Dict[int, int] = {}  # core seqno -> submission index

    def enqueue(self, tenant, weight, cost, seqno, now):
        request = Request(tenant_id=tenant, cost=cost, weight=weight)
        self.requests[seqno] = request
        self.index_of[request.seqno] = seqno
        self.scheduler.enqueue(request, now)

    def dequeue(self, thread, now):
        request = self.scheduler.dequeue(thread, now)
        if request is None:
            return None
        return request.tenant_id, self.index_of[request.seqno], request.cost

    def complete(self, tenant, seqno, now):
        request = self.requests.pop(seqno)
        self.scheduler.complete(request, request.cost, now)

    @property
    def v(self):
        return self.scheduler.virtual_clock.value


def workload(seed: int):
    """Threads (seeds cycle through 2..8) plus, per tenant: weight,
    window, first arrival, and the cost and think-time streams (drawn
    up front so both sides see the same numbers whatever they
    dispatch)."""
    rng = make_rng(seed, "fair-queue-oracle")
    threads = 2 + seed % 7
    tenants = []
    for t in range(int(rng.integers(2, 41))):
        late = rng.random() < 1 / 3
        tenants.append(
            {
                "id": f"t{t}",
                "weight": float(rng.choice((1.0, 1.0, 2.0))),
                "window": int(rng.integers(1, 4)),
                "first": float(rng.uniform(0.0, 20.0)) if late else 0.0,
                "costs": [float(c) for c in rng.choice(COSTS, size=DISPATCHES)],
                "thinks": [float(c) for c in rng.choice(THINK_TIMES, size=DISPATCHES)],
            }
        )
    return threads, tenants


def run(scheduler, threads: int, tenants) -> Tuple[List[Row], List[float]]:
    """Closed loop: each tenant keeps ``window`` requests outstanding and
    submits a replacement one think time after each completion.  Idle
    threads are offered work in descending index order after every
    event, as ``ThreadPoolServer`` does."""
    events: list = []
    order = 0
    drawn = {t["id"]: 0 for t in tenants}
    by_id = {t["id"]: t for t in tenants}
    submitted = 0

    def push(time, kind, payload):
        nonlocal order
        heapq.heappush(events, (time, order, kind, payload))
        order += 1

    for tenant in tenants:
        for _ in range(tenant["window"]):
            push(tenant["first"], "arrive", tenant["id"])
    idle = [True] * threads
    rows: List[Row] = []
    vts: List[float] = []
    while events and len(rows) < DISPATCHES:
        now, _, kind, payload = heapq.heappop(events)
        if kind == "arrive":
            tenant = by_id[payload]
            k = drawn[payload] % DISPATCHES
            drawn[payload] += 1
            scheduler.enqueue(payload, tenant["weight"], tenant["costs"][k], submitted, now)
            submitted += 1
        else:
            thread, tenant_id, seqno = payload
            idle[thread] = True
            scheduler.complete(tenant_id, seqno, now)
            think = by_id[tenant_id]["thinks"][drawn[tenant_id] % DISPATCHES]
            push(now + think, "arrive", tenant_id)
        for thread in range(threads - 1, -1, -1):
            if not idle[thread]:
                continue
            got = scheduler.dequeue(thread, now)
            if got is None:
                break
            tenant_id, seqno, cost = got
            idle[thread] = False
            rows.append((now, thread, tenant_id, seqno))
            vts.append(scheduler.v)
            push(now + cost, "complete", (thread, tenant_id, seqno))
    return rows, vts


@pytest.mark.parametrize("indexed", [False, True, "auto"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", range(24))
def test_dispatch_sequence_matches_oracle(policy, indexed, seed):
    threads, tenants = workload(seed)
    expected, expected_vt = run(
        FairQueueOracle(policy, threads), threads, tenants
    )
    scheduler = force_selection(make_scheduler(policy, threads), indexed)
    got, got_vt = run(CoreAdapter(scheduler), threads, tenants)
    assert len(expected) == DISPATCHES
    for i, (want, have) in enumerate(zip(expected, got)):
        assert want == have, f"dispatch {i} diverges"
    assert got == expected
    assert got_vt == expected_vt


def test_workloads_cover_thread_range_and_idle_tenants():
    # The seeds above must cover thread counts across the range and
    # tenants going idle mid-run (their return fast-forwards the tag).
    seen_threads = set()
    for seed in range(24):
        idle_transitions = 0
        threads, tenants = workload(seed)
        seen_threads.add(threads)
        oracle = FairQueueOracle("2dfq", threads)
        deactivate = oracle._deactivate

        def counting(tenant, deactivate=deactivate):
            nonlocal idle_transitions
            idle_transitions += 1
            deactivate(tenant)

        oracle._deactivate = counting
        rows, _ = run(oracle, threads, tenants)
        assert len(rows) == DISPATCHES
        assert idle_transitions > 0, seed
    assert seen_threads == set(range(2, 9))
