"""Property-based tests on scheduler invariants (hypothesis).

The key invariants from the paper:

* **Theorem 1 bound**: a tenant never falls behind its GPS share by more
  than ``N * Lmax`` (we check the scheduler-side analogue on dispatched
  work for backlogged tenants);
* **work conservation**: no thread idles while requests are queued;
* **per-tenant FIFO**: requests of one tenant dispatch in arrival order;
* **conservation of requests**: every enqueued request is dispatched
  exactly once and bookkeeping counters balance.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings, strategies as st

from repro.core import make_scheduler
from repro.core.request import Request

FAIR_SCHEDULERS = ["wfq", "wf2q", "msf2q", "sfq", "2dfq"]
ALL_SCHEDULERS = FAIR_SCHEDULERS + ["fifo", "round-robin", "2dfq-e", "wfq-e"]

tenant_ids = st.sampled_from(["A", "B", "C", "D"])
costs = st.floats(min_value=0.1, max_value=100.0, allow_nan=False)


@st.composite
def workloads(draw, max_requests: int = 30):
    """A random batch of (tenant, cost) arrivals."""
    n = draw(st.integers(min_value=1, max_value=max_requests))
    return [(draw(tenant_ids), draw(costs)) for _ in range(n)]


def drive(scheduler, batch, num_threads):
    """Run a batch to completion on simulated unit-rate threads,
    returning the dispatch order."""
    for tenant, cost in batch:
        scheduler.enqueue(Request(tenant_id=tenant, cost=cost), 0.0)
    free = [(0.0, i) for i in range(num_threads)]
    heapq.heapify(free)
    completions: list = []
    order = []
    while scheduler.backlog > 0:
        now, thread = heapq.heappop(free)
        while completions and completions[0][0] <= now:
            end, _, done = heapq.heappop(completions)
            scheduler.complete(done, done.cost, end)
        request = scheduler.dequeue(thread, now)
        assert request is not None, "work conservation violated"
        order.append(request)
        end = now + request.cost
        heapq.heappush(completions, (end, request.seqno, request))
        heapq.heappush(free, (end, thread))
    while completions:
        end, _, done = heapq.heappop(completions)
        scheduler.complete(done, done.cost, end)
    return order


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(ALL_SCHEDULERS), batch=workloads(),
       num_threads=st.integers(min_value=1, max_value=4))
def test_every_request_dispatched_exactly_once(name, batch, num_threads):
    scheduler = make_scheduler(name, num_threads=num_threads)
    order = drive(scheduler, batch, num_threads)
    assert len(order) == len(batch)
    assert len({r.seqno for r in order}) == len(batch)
    assert scheduler.backlog == 0
    assert scheduler.completed_count == len(batch)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(ALL_SCHEDULERS), batch=workloads(),
       num_threads=st.integers(min_value=1, max_value=4))
def test_per_tenant_fifo_order(name, batch, num_threads):
    scheduler = make_scheduler(name, num_threads=num_threads)
    order = drive(scheduler, batch, num_threads)
    per_tenant_seqnos: dict = {}
    for request in order:
        seqnos = per_tenant_seqnos.setdefault(request.tenant_id, [])
        seqnos.append(request.seqno)
    for tenant, seqnos in per_tenant_seqnos.items():
        assert seqnos == sorted(seqnos), f"{tenant} served out of order"


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(FAIR_SCHEDULERS), batch=workloads())
def test_tenant_state_consistency_after_drain(name, batch):
    scheduler = make_scheduler(name, num_threads=2)
    drive(scheduler, batch, 2)
    for state in scheduler.tenants().values():
        assert not state.backlogged
        assert state.running == 0
        assert not state.active


@settings(max_examples=20, deadline=None)
@given(
    num_threads=st.integers(min_value=1, max_value=8),
    small_cost=st.floats(min_value=0.1, max_value=2.0),
    large_cost=st.floats(min_value=10.0, max_value=200.0),
)
def test_theorem1_lag_bound_2dfq(num_threads, small_cost, large_cost):
    """Theorem 1: W_GPS - W_2DFQ <= N * Lmax for backlogged tenants.

    With two equal-weight backlogged tenants, each one's GPS share over
    [0, t] is t * capacity / 2; verify the dispatched-work shortfall
    never exceeds N * Lmax at any dispatch instant.
    """
    scheduler = make_scheduler("2dfq", num_threads=num_threads)
    costs = {"small": small_cost, "large": large_cost}
    lmax = max(costs.values())
    capacity = float(num_threads)
    horizon = 40.0 * lmax / capacity

    served = {"small": 0.0, "large": 0.0}
    queued = {
        "small": [Request(tenant_id="small", cost=small_cost) for _ in range(2)],
        "large": [Request(tenant_id="large", cost=large_cost) for _ in range(2)],
    }
    for tenant in ("small", "large"):
        for request in queued[tenant]:
            scheduler.enqueue(request, 0.0)
    free = [(0.0, i) for i in range(num_threads)]
    heapq.heapify(free)
    completions: list = []
    while free:
        now, thread = heapq.heappop(free)
        if now >= horizon:
            continue
        while completions and completions[0][0] <= now:
            end, _, done = heapq.heappop(completions)
            scheduler.complete(done, done.cost, end)
        request = scheduler.dequeue(thread, now)
        # Check the bound at this instant for both tenants.
        for tenant, cost in costs.items():
            gps_share = now * capacity / 2.0
            shortfall = gps_share - served[tenant]
            assert shortfall <= num_threads * lmax + cost + 1e-6, (
                f"{tenant} fell behind by {shortfall}"
            )
        served[request.tenant_id] += request.cost
        replacement = Request(tenant_id=request.tenant_id, cost=request.cost)
        scheduler.enqueue(replacement, now)
        end = now + request.cost
        heapq.heappush(completions, (end, request.seqno, request))
        heapq.heappush(free, (end, thread))
