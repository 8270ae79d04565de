"""NaN, infinite and non-positive numbers are rejected where they enter.

A NaN weight or cost makes every tag comparison of its tenant false, so
the tenant is silently never chosen, and the scheduler later fails with a
misleading work-conservation error.  Each entry point below refuses such
a value up front instead: the constructors at construction time, a
request's cost at admission (``ThreadPoolServer.submit``), and a
request's weight when its tenant's state is first created.
"""

from __future__ import annotations

import math

import pytest

from repro.core import make_scheduler
from repro.core.request import Request
from repro.core.scheduler import TenantState
from repro.core.virtual_time import VirtualClock
from repro.errors import ConfigurationError, WorkloadError
from repro.estimation import EMAEstimator, LastValueEstimator, PessimisticEstimator
from repro.simulator import Simulation, ThreadPoolServer
from repro.workloads import FixedCost, TenantSpec

NAN = math.nan
INF = math.inf
NON_FINITE = [NAN, INF, -INF]


@pytest.mark.parametrize("value", NON_FINITE)
def test_tenant_state_weight(value):
    with pytest.raises(ConfigurationError, match="finite"):
        TenantState("T", value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_tenant_spec_weight(value):
    with pytest.raises(WorkloadError, match="finite"):
        TenantSpec(tenant_id="T", api_costs={"a": FixedCost(1.0)}, weight=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_virtual_clock_capacity(value):
    with pytest.raises(ConfigurationError, match="finite"):
        VirtualClock(value)


@pytest.mark.parametrize("name", ["fifo", "round-robin", "wfq", "2dfq"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_scheduler_thread_rate(name, value):
    with pytest.raises(ConfigurationError, match="finite"):
        make_scheduler(name, 1, thread_rate=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_server_rate(value):
    scheduler = make_scheduler("2dfq", 1)
    with pytest.raises(ConfigurationError, match="finite"):
        ThreadPoolServer(Simulation(), scheduler, 1, rate=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_server_refresh_interval(value):
    scheduler = make_scheduler("2dfq", 1)
    with pytest.raises(ConfigurationError, match="finite"):
        ThreadPoolServer(Simulation(), scheduler, 1, refresh_interval=value)


@pytest.mark.parametrize(
    "estimator", [EMAEstimator, PessimisticEstimator, LastValueEstimator]
)
@pytest.mark.parametrize("value", NON_FINITE)
def test_estimator_initial_estimate(estimator, value):
    with pytest.raises(ConfigurationError, match="finite"):
        estimator(initial_estimate=value)


@pytest.mark.parametrize("name", ["wfq", "wf2q", "2dfq"])
@pytest.mark.parametrize("value", [NAN, INF])
def test_request_weight_rejected_at_first_enqueue(name, value):
    # Three poisoned requests beside three normal ones: the poisoned
    # tenant is refused when its state is created, before it can starve.
    scheduler = make_scheduler(name, 1)
    for _ in range(3):
        scheduler.enqueue(Request(tenant_id="ok", cost=1.0), 0.0)
    with pytest.raises(ConfigurationError, match="finite"):
        scheduler.enqueue(Request(tenant_id="bad", cost=1.0, weight=value), 0.0)
    assert [scheduler.dequeue(0, 0.0).tenant_id for _ in range(3)] == ["ok"] * 3
    assert scheduler.dequeue(0, 0.0) is None


@pytest.mark.parametrize("name", ["fifo", "wfq", "wf2q", "2dfq"])
@pytest.mark.parametrize("cost", [NAN, INF, -INF, -1.0])
def test_request_cost_rejected_at_admission(name, cost):
    sim = Simulation()
    server = ThreadPoolServer(sim, make_scheduler(name, 1), 1)
    bad = Request(tenant_id="bad", cost=cost)
    with pytest.raises(ConfigurationError) as excinfo:
        server.submit(bad)
    message = str(excinfo.value)
    assert "bad" in message and f"#{bad.seqno}" in message
    assert server.scheduler.backlog == 0


def test_zero_cost_request_still_admitted():
    sim = Simulation()
    server = ThreadPoolServer(sim, make_scheduler("2dfq", 1), 1)
    done = []
    server.on_complete(done.append)
    sim.at(0.0, server.submit, Request(tenant_id="T", cost=0.0))
    sim.run()
    assert len(done) == 1
