"""A run's record feeds the garbage collector nothing per request
(DESIGN.md §13, *GC discipline*).

The server and the fleet write per-request data into the collector's
run record as plain strs and numbers in flat lists, so no per-request
container stays tracked, and ``MetricsCollector.result()`` ends the
collection: it cancels the pending sample and detaches the record (and,
for a fleet, the capacity listener).  A simulation and its server refer
to each other through their pending events, so they wait in a cycle for
a full collection; the store of a finished run must not wait with them.
Each test runs with the collector off, so only reference counting frees.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest

from repro import Simulation, ThreadPoolServer, make_scheduler
from repro.core.request import Request
from repro.experiments import run_single
from repro.experiments.expensive_requests import expensive_requests_config
from repro.fleet import Fleet, FleetCollector
from repro.metrics import MetricsCollector
from repro.simulator import BackloggedSource
from repro.workloads import expensive_requests_population

#: Tracked objects the finished record may gain per extra sample: the
#: row's three arrays (actual service, GPS arrived service and emptying
#: times) and the Gini sample's ``(time, index)`` tuple.  A tracked
#: object per request exceeds it many times over.
TRACKED_PER_SAMPLE = 4


@pytest.fixture
def gc_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _start(target, costs):
    for tenant, cost in costs:
        BackloggedSource(target, tenant, lambda cost=cost: ("x", cost), window=2).start()


def _server_run():
    sim = Simulation()
    server = ThreadPoolServer(sim, make_scheduler("2dfq", 2, thread_rate=10.0), 2, rate=10.0)
    collector = MetricsCollector(server, sample_interval=0.1)
    _start(server, (("a", 1.0), ("b", 4.0)))
    sim.run(until=1.0)
    return sim, server, collector


def _fleet_run():
    sim = Simulation()
    servers = [
        ThreadPoolServer(sim, make_scheduler("wfq", 2), 2, rate=10.0) for _ in range(2)
    ]
    fleet = Fleet(sim, servers, router="round-robin")
    collector = FleetCollector(fleet, sample_interval=0.1)
    _start(fleet, (("a", 1.0), ("b", 4.0)))
    sim.run(until=1.0)
    return sim, fleet, collector


def _values(metrics):
    """Everything a run's store holds, as plain values."""
    return (
        {tenant: list(values) for tenant, values in metrics.latencies.items()},
        list(metrics.dispatch_log),
        metrics.gini_values.tolist(),
        {
            tenant: [column.tolist() for column in metrics.partial.series.columns(tenant)]
            for tenant in metrics.tenants()
        },
    )


def test_a_run_single_store_frees_by_reference_counting(gc_off):
    config = expensive_requests_config(duration=1.0, num_threads=4, thread_rate=100.0)
    metrics = run_single(
        "2dfq", expensive_requests_population(num_small=5, total=10), config
    )
    assert metrics.completed() > 0
    store = weakref.ref(metrics.partial)
    del metrics
    assert store() is None


@pytest.mark.parametrize("run", [_server_run, _fleet_run], ids=["server", "fleet"])
def test_a_collected_store_frees_by_reference_counting(gc_off, run):
    sim, target, collector = run()
    metrics = collector.result()
    assert metrics.completed() > 0
    store = weakref.ref(metrics.partial)
    cycle = weakref.ref(target)
    del sim, target, collector, metrics
    assert cycle() is not None, "the simulation no longer holds a cycle"
    assert store() is None


@pytest.mark.parametrize("run", [_server_run, _fleet_run], ids=["server", "fleet"])
def test_result_ends_the_collection(run):
    sim, target, collector = run()
    pending = sim.pending_events
    first = collector.result()
    assert sim.pending_events == pending - 1  # the next sample
    recorded = _values(first)
    assert recorded[0] and recorded[3]
    target.submit(Request("late", 1.0))
    sim.run(until=2.0)
    second = collector.result()
    assert "late" not in second.tenants()
    assert _values(second) == recorded


def _tracked_reachable(root):
    """GC-tracked objects reachable from ``root``, classes and modules
    left out."""
    seen = set()
    stack = [root]
    tracked = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if gc.is_tracked(obj):
            tracked += 1
            stack.extend(gc.get_referents(obj))
    return tracked


def _footprint(duration):
    """The ``expensive`` cell's 2DFQ run, reduced: its tracked objects,
    samples, tenants with a latency list, and dispatches."""
    config = expensive_requests_config(duration=duration, num_threads=8)
    metrics = run_single(
        "2dfq", expensive_requests_population(num_small=10, total=20), config
    )
    return (
        _tracked_reachable(metrics),
        len(metrics.partial.series.times),
        len(metrics.latencies),
        len(metrics.dispatch_log),
    )


def test_tracked_footprint_grows_with_samples_not_requests(gc_off):
    tracked, samples, tenants, requests = _footprint(0.5)
    tracked2, samples2, tenants2, requests2 = _footprint(1.0)
    assert requests2 - requests > 100 * (samples2 - samples)
    # A tenant's first post-warmup completion adds its latency list.
    allowed = TRACKED_PER_SAMPLE * (samples2 - samples) + (tenants2 - tenants)
    assert tracked2 - tracked <= allowed, (
        f"{tracked2 - tracked} more tracked objects for {samples2 - samples} more "
        f"samples and {requests2 - requests} more dispatches"
    )
