"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import heapq
import sys
from typing import Dict, List, Optional, Sequence, Tuple, Union

import pytest

from repro.core import (
    MSF2QScheduler,
    SFQScheduler,
    VirtualTimeScheduler,
    make_scheduler,
    scheduler_names,
)
from repro.core.request import Request
from repro.core.scheduler import Scheduler
from repro.estimation import EMAEstimator

#: SFQ and MSF2Q driven by the EMA estimator.  The registry names no such
#: pairing (the paper's EMA baselines are WFQ^E and WF2Q^E, §6.2); tests
#: build them here so both policies stay covered under estimated costs.
EMA_POLICIES = {"sfq-e": SFQScheduler, "msf2q-e": MSF2QScheduler}

#: Every registry name plus the two EMA pairings above.
TEST_SCHEDULERS = sorted(scheduler_names() + list(EMA_POLICIES))


class QuadraticStagger2DFQ(VirtualTimeScheduler):
    """2DFQ with the eligibility offset ``(i/n)^2 * l``: small requests
    squeezed onto fewer, higher threads."""

    name = "2dfq-quadratic"

    def _staggers(self, num_threads: int) -> Sequence[float]:
        return [(i / num_threads) ** 2 for i in range(num_threads)]


class SqrtStagger2DFQ(VirtualTimeScheduler):
    """2DFQ with the eligibility offset ``sqrt(i/n) * l``: small requests
    spread over more threads."""

    name = "2dfq-sqrt"

    def _staggers(self, num_threads: int) -> Sequence[float]:
        return [(i / num_threads) ** 0.5 for i in range(num_threads)]


#: Policies declared outside the registry, as a user would write them.
STAGGER_POLICIES = {
    cls.name: cls for cls in (QuadraticStagger2DFQ, SqrtStagger2DFQ)
}


def build_scheduler(
    name: str, num_threads: int, thread_rate: float = 1.0, **kwargs
) -> Scheduler:
    """``make_scheduler``, extended to the names in :data:`EMA_POLICIES`
    and :data:`STAGGER_POLICIES`."""
    if name in EMA_POLICIES:
        return EMA_POLICIES[name](
            num_threads, thread_rate, estimator=EMAEstimator(), **kwargs
        )
    if name in STAGGER_POLICIES:
        return STAGGER_POLICIES[name](num_threads, thread_rate, **kwargs)
    return make_scheduler(name, num_threads, thread_rate, **kwargs)


def force_selection(
    scheduler: VirtualTimeScheduler, indexed: Union[bool, str]
) -> VirtualTimeScheduler:
    """Pin a scheduler's selection path through its adaptive thresholds,
    the one hook for reaching either path: ``True`` builds the index at
    the first enqueue and never tears it down, ``False`` never builds
    it, ``"auto"`` keeps the shipped thresholds.  So ``indexed`` reads
    ``False`` until the first enqueue even when forced on."""
    if indexed is True:
        scheduler.AUTO_INDEX_HIGH, scheduler.AUTO_INDEX_LOW = 1, 0
    elif indexed is False:
        scheduler.AUTO_INDEX_HIGH = sys.maxsize
    elif indexed != "auto":
        raise ValueError(f"indexed must be True, False or 'auto', got {indexed!r}")
    return scheduler


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
