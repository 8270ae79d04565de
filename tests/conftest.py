"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core import MSF2QScheduler, SFQScheduler, make_scheduler, scheduler_names
from repro.core.request import Request
from repro.core.scheduler import Scheduler
from repro.estimation import EMAEstimator

#: SFQ and MSF2Q driven by the EMA estimator.  The registry names no such
#: pairing (the paper's EMA baselines are WFQ^E and WF2Q^E, §6.2); tests
#: build them here so both policies stay covered under estimated costs.
EMA_POLICIES = {"sfq-e": SFQScheduler, "msf2q-e": MSF2QScheduler}

#: Every registry name plus the two EMA pairings above.
TEST_SCHEDULERS = sorted(scheduler_names() + list(EMA_POLICIES))


def build_scheduler(
    name: str, num_threads: int, thread_rate: float = 1.0, **kwargs
) -> Scheduler:
    """``make_scheduler``, extended to the names in :data:`EMA_POLICIES`."""
    policy = EMA_POLICIES.get(name)
    if policy is None:
        return make_scheduler(name, num_threads, thread_rate, **kwargs)
    return policy(num_threads, thread_rate, estimator=EMAEstimator(), **kwargs)


def make_request(
    tenant: str = "T",
    cost: float = 1.0,
    api: str = "api",
    weight: float = 1.0,
) -> Request:
    """A bare request for direct scheduler tests."""
    return Request(tenant_id=tenant, cost=cost, api=api, weight=weight)


class SchedulerHarness:
    """Deterministic sequencer that drives a scheduler directly.

    Simulates a pool of unit-rate threads with deferred completions, as
    the paper's worked examples do.  Tenants are kept backlogged: each
    dispatch immediately enqueues a replacement request of the same
    (tenant, cost).
    """

    def __init__(self, scheduler: Scheduler, costs: Dict[str, float]) -> None:
        self.scheduler = scheduler
        self.costs = dict(costs)
        self.slots: List[Tuple[float, int, str]] = []  # (start, thread, tenant)

    def run(self, horizon: float) -> List[Tuple[float, int, str]]:
        scheduler = self.scheduler
        # Two initial requests per tenant so queues never drain at
        # dequeue time.
        for tenant, cost in self.costs.items():
            scheduler.enqueue(make_request(tenant, cost), 0.0)
        for tenant, cost in self.costs.items():
            scheduler.enqueue(make_request(tenant, cost), 0.0)
        free = [(0.0, i) for i in range(scheduler.num_threads)]
        heapq.heapify(free)
        completions: List[Tuple[float, int, Request]] = []
        while free:
            now, thread = heapq.heappop(free)
            if now >= horizon:
                continue
            while completions and completions[0][0] <= now:
                end, _, done = heapq.heappop(completions)
                scheduler.complete(done, done.cost, end)
            request = scheduler.dequeue(thread, now)
            assert request is not None
            end = now + request.cost / scheduler.thread_rate
            self.slots.append((now, thread, request.tenant_id))
            scheduler.enqueue(
                make_request(request.tenant_id, self.costs[request.tenant_id]), now
            )
            heapq.heappush(completions, (end, request.seqno, request))
            heapq.heappush(free, (end, thread))
        self.slots.sort()
        return self.slots

    def service_by_tenant(self, horizon: Optional[float] = None) -> Dict[str, float]:
        """Total cost dispatched per tenant within the horizon."""
        out: Dict[str, float] = {}
        for start, _, tenant in self.slots:
            if horizon is not None and start >= horizon:
                continue
            out[tenant] = out.get(tenant, 0.0) + self.costs[tenant]
        return out


@pytest.fixture
def harness_factory():
    """Factory fixture: ``harness_factory(scheduler, costs)``."""
    return SchedulerHarness
