"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import functools
import heapq
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

#: Legacy global-state calls that save, seed or restore but never draw.
#: Hypothesis uses them to seed and restore the global generators
#: around each example.
_GLOBAL_STATE_KEEPERS = {"seed", "get_state", "set_state", "getstate", "setstate"}


def _install_rng_guard() -> None:
    """Make ``repro.simulator.rng.make_rng`` the only way to get random
    numbers while the suite runs.

    A run must be a pure function of its seed (the paper's §6
    comparisons replay one workload against every scheduler).  So
    ``np.random.default_rng`` and ``np.random.SeedSequence`` raise
    unless ``make_rng`` calls them, and every draw from numpy's legacy
    global ``RandomState`` or stdlib ``random``'s hidden instance
    raises wherever it comes from.  Installed before the first
    ``repro`` import, so a ``from numpy.random import default_rng``
    bound at import time is guarded too.
    """

    def chokepoint(name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            caller = sys._getframe(1)
            if (
                caller.f_code.co_name == "make_rng"
                and caller.f_globals.get("__name__") == "repro.simulator.rng"
            ):
                return fn(*args, **kwargs)
            raise RuntimeError(
                f"numpy.random.{name} called outside "
                "repro.simulator.rng.make_rng: derive the stream with "
                "make_rng(seed, *key)"
            )

        return guarded

    def global_draw(module: str, name: str) -> Callable:
        def guarded(*args, **kwargs):
            raise RuntimeError(
                f"{module}.{name} draws from a hidden global generator: "
                "use a Generator from repro.simulator.rng.make_rng"
            )

        return guarded

    for name in ("default_rng", "SeedSequence"):
        setattr(np.random, name, chokepoint(name, getattr(np.random, name)))
    for name in np.random.mtrand.__all__:
        if name[:1].islower() and name not in _GLOBAL_STATE_KEEPERS:
            setattr(np.random, name, global_draw("numpy.random", name))
    for name in dir(random):
        bound_to = getattr(getattr(random, name), "__self__", None)
        if bound_to is random._inst and name not in _GLOBAL_STATE_KEEPERS:
            setattr(random, name, global_draw("random", name))


_install_rng_guard()

# Every repro import comes after the guard.
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
from repro.obs import Tracer
from repro.obs.events import row_as_dict

from reference import linear_selection

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


def check_every_pick(
    scheduler: Scheduler, tracer: Optional[Tracer] = None
) -> List[Optional[linear_selection.Pick]]:
    """Check each later ``scheduler.dequeue`` against the linear scan.

    Shadows ``dequeue`` on the instance.  Before each call the reference
    pick is computed from the untouched state; the call must return
    that tenant's head request.  With ``tracer`` (attached to the
    scheduler), the call's ``select`` row must carry the reference's
    eligibility count and fallback flag.  Returns the list the checked
    picks are appended to."""
    dequeue = scheduler.dequeue
    picks: List[Optional[linear_selection.Pick]] = []

    def checked(thread_id: int, now: float) -> Optional[Request]:
        want = linear_selection.pick(scheduler, thread_id, now)
        request = dequeue(thread_id, now)
        got = None if request is None else (request.tenant_id, request.seqno)
        assert got == (want and want[:2]), f"pick {len(picks)} on thread {thread_id}"
        if tracer is not None and request is not None:
            select = row_as_dict(tracer.rows[-2])
            assert select["kind"] == "select"
            assert (select["eligible"], select["fallback"]) == want[2:], len(picks)
        picks.append(want)
        return request

    scheduler.dequeue = checked
    return picks


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
