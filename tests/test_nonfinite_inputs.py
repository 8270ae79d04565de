"""NaN, infinite and non-positive numbers are rejected where they enter.

A NaN weight or cost makes every tag comparison of its tenant false, so
the tenant is silently never chosen, and the scheduler later fails with a
misleading work-conservation error.  Each entry point below refuses such
a value up front instead: the constructors at construction time, a
request's cost at admission (``ThreadPoolServer.submit``), and a
request's weight when its tenant's state is first created.  The fluid
GPS reference checks each arrival's cost, a flow's weight when the flow
is created, each target time and each capacity.  ``AuditConfig``
refuses any threshold that would break or silence a monitor.  The
sources and ``rescale_trace`` refuse replay parameters that would
submit at the wrong time, or nothing, without an error.  A worker's
speed, and the slowdown factor a fault plan sets it to, must be finite
and non-negative.
"""

from __future__ import annotations

import math

import pytest

from repro.core import make_scheduler
from repro.core.request import Request
from repro.core.scheduler import TenantState
from repro.core.virtual_time import VirtualClock
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.estimation import EMAEstimator, LastValueEstimator, PessimisticEstimator
from repro.faults import ServerSlowdown, WorkerSlowdown
from repro.obs import AuditConfig
from repro.simulator import (
    BackloggedSource, GPSReference, Simulation, ThreadPoolServer, TraceSource,
)
from repro.workloads import FixedCost, TenantSpec, TraceRecord, rescale_trace

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


@pytest.mark.parametrize("value", NON_FINITE + [0.0, -1.0])
def test_gps_capacity(value):
    with pytest.raises(ConfigurationError, match="capacity must be positive"):
        GPSReference(value)
    gps = GPSReference(1.0)
    with pytest.raises(ConfigurationError, match="capacity must be positive"):
        gps.set_capacity(value, now=0.0)
    assert gps.capacity == 1.0


@pytest.mark.parametrize("cost", NON_FINITE)
def test_gps_cost(cost):
    gps = GPSReference(1.0)
    with pytest.raises(ConfigurationError, match="cost must be >= 0"):
        gps.arrive("T", cost, now=0.0)
    assert gps.service("T") == 0.0


@pytest.mark.parametrize("weight", NON_FINITE + [0.0, -1.0])
def test_gps_weight_checked_when_the_flow_is_created(weight):
    gps = GPSReference(1.0)
    with pytest.raises(ConfigurationError, match="weight must be positive"):
        gps.arrive("T", 1.0, now=0.0, weight=weight)
    assert gps.active_weight == 0.0
    # The rejected arrival created no flow: a good weight still starts it.
    gps.arrive("T", 1.0, now=0.0, weight=2.0)
    assert gps.active_weight == 2.0


def test_gps_nan_time():
    gps = GPSReference(1.0)
    gps.arrive("T", 10.0, now=0.0)
    with pytest.raises(SimulationError, match="moved backwards"):
        gps.advance(NAN)
    with pytest.raises(SimulationError, match="moved backwards"):
        gps.replay([("T", 1.0, NAN, 1.0)])
    assert gps.now == 0.0 and gps.service("T") == 0.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("burst_window", 0),  # a ZeroDivisionError at the first sample
        ("burst_window", 1),  # one value has no variance: never trips
        ("burst_window", 2.5),
        ("burst_consecutive", 0),
        ("drift_min_observations", -1),
        ("capacity", NAN),  # the last three silence the lag monitor
        ("capacity", -2.0),
        ("capacity", 0.0),
        ("capacity", INF),
        ("lag_threshold_seconds", NAN),
        ("lag_threshold_seconds", INF),
        ("lag_threshold_seconds", 0.0),
        ("burst_cov_threshold", NAN),
        ("burst_cov_threshold", -1.0),
        ("drift_threshold", NAN),
        ("drift_threshold", 0.0),
        ("drift_alpha", 5.0),  # the EWMA diverges
        ("drift_alpha", 0.0),  # the EWMA never moves
        ("drift_alpha", NAN),
    ],
)
def test_audit_config_rejects_what_breaks_or_silences_a_monitor(field, value):
    with pytest.raises(ValueError, match=field):
        AuditConfig(**{field: value})


def test_audit_config_accepts_the_defaults_and_no_capacity():
    assert AuditConfig().capacity is None
    AuditConfig(capacity=2, burst_window=2, drift_alpha=1.0, drift_min_observations=0)


def _server():
    return ThreadPoolServer(Simulation(), make_scheduler("2dfq", 1), 1)


@pytest.mark.parametrize("speed", [INF, NAN, -INF, 0.0, -1.0])
def test_trace_source_speed(speed):
    # inf submitted every record at t=0; NaN failed later, in the clock.
    with pytest.raises(ConfigurationError, match=f"speed .*got {speed}"):
        TraceSource(_server(), [(0.5, "T", "a", 1.0)], speed=speed)


@pytest.mark.parametrize("speed", [INF, NAN, -INF, 0.0, -1.0])
def test_rescale_trace_speed(speed):
    # inf gave all-zero times and NaN gave NaN times.
    trace = [TraceRecord(0.5, "T", "a", 1.0)]
    with pytest.raises(WorkloadError, match=f"speed .*got {speed}"):
        rescale_trace(trace, speed)


@pytest.mark.parametrize(
    "field, value",
    [
        ("window", 2.5),  # silently kept 2
        ("window", NAN),  # a bare ValueError from int()
        ("window", 0),
        ("window", INF),
        ("limit", -1),  # silently submitted nothing
        ("limit", 2.5),
        ("limit", NAN),
        ("start_time", NAN),
        ("start_time", INF),
        ("start_time", -1.0),
    ],
)
def test_backlogged_source_rejects(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} .*got {value!r}"):
        BackloggedSource(_server(), "T", lambda: ("a", 1.0), **{field: value})


@pytest.mark.parametrize("limit", [None, 0, 3])
def test_backlogged_source_accepts_no_limit_and_zero(limit):
    server = _server()
    source = BackloggedSource(
        server, "T", lambda: ("a", 1.0), window=2, start_time=0.5, limit=limit
    )
    source.start()
    server.sim.run(until=10.0)
    if limit is None:
        assert source.submitted > 2
    else:
        assert source.submitted == limit


@pytest.mark.parametrize("speed", [NAN, INF, -INF, -1.0])
def test_worker_speed_rejected_before_any_state_changes(speed):
    # NaN left the busy worker with no completion event, so its request
    # never finished; inf made its progress 0 * inf = NaN at once.
    sim = Simulation()
    server = ThreadPoolServer(
        sim, make_scheduler("wfq", 1), 1, rate=1.0, refresh_interval=None
    )
    server.submit(Request("T", 4.0))
    sim.run(until=1.0)
    worker = server.workers[0]
    event = worker.completion_event
    with pytest.raises(ConfigurationError, match=f"speed .*got {speed}"):
        server.set_worker_speed(0, speed)
    assert worker.speed == 1.0
    assert worker.completion_event is event
    assert (worker.done_work, worker.work_mark, worker.last_report) == (0.0, 0.0, 0.0)
    assert server.service_received("T") == 1.0
    sim.run()
    assert server.completed_requests == 1
    assert sim.now == 4.0


@pytest.mark.parametrize("cls, target", [(WorkerSlowdown, "worker"), (ServerSlowdown, "server")])
@pytest.mark.parametrize("factor", [INF, NAN, -1.0])
def test_slowdown_factor(cls, target, factor):
    # inf was accepted here and refused by set_worker_speed mid-run.
    with pytest.raises(ConfigurationError, match="slowdown factor"):
        cls(**{target: 0}, start=0.0, end=1.0, factor=factor)
