"""Per-request call budget of the simulator's hot path.

Two reduced cells of the e2e benchmark's closed-loop workloads run
under :mod:`cProfile`, whose call counts are exact and deterministic, so
the budget can be pinned tightly: a change that adds a Python frame to
the per-request chain (``submit`` -> ``enqueue`` -> dispatch pass ->
``dequeue`` -> ``_start`` -> ``Simulation.at``, then ``_finish`` ->
``complete`` -> listeners -> resubmit) fails here before it shows as
lost requests per second.  Both cells select through the one sorted
list (``repro.core.selection``), and both pin its churn: one re-filing
per completed request.  A third cell builds Figure 8a's population from
tenant specs and pins the workload layer's share of the calls: its
request streams draw in blocks, so no frame of it runs per request.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path

import pytest

import repro.metrics
import repro.workloads
from repro import Simulation, ThreadPoolServer, make_scheduler
from repro.metrics import MetricsCollector
from repro.simulator import BackloggedSource
from repro.workloads import attach_specs, expensive_requests_population

THREADS = 4
RATE = 100.0
WINDOW = 4
TENANTS = 8
HORIZON = 10.0

#: cProfile calls (Python functions and builtins) per completed request
#: of :func:`profiled_cell`, plus 2 of headroom.  The cell measured
#: 77.7 before and 58.0 after one dispatch pass per completion, the
#: one-frame closed-loop resubmit, the inlined bookkeeping helpers and
#: eligibility threshold, and the collector's inline latency (the
#: full-horizon e2e ``quickstart`` cell went from 76.7 to 57.6), then
#: 55.13 once a zero-charge completion under known costs stopped
#: re-filing its tenant for selection (e2e ``quickstart`` 54.8), on the
#: linear scans this cell then ran on.  On the sorted list, with every
#: touch filing at once, it measured 56.10, 54.56 once each event's
#: heap entry became its own handle (no handle object built per event),
#: 52.68 once the GPS reference's heap held one entry per active
#: flow (a re-arrival pushes nothing and no compaction runs), and 44.71
#: once the server wrote arrivals, dispatches and latencies into the
#: collector's run record (no listener frames) and samples became rows
#: (no per-tenant loops).  Run alone it measured 44.58 before and 45.58
#: after the server kept a free list of workers: a completion inserts
#: its worker with one ``insort`` call, and a pass takes the top index
#: with ``del`` (no call) instead of scanning the pool.  It measured
#: 44.63 once a dispatch extended the run record's flat log instead of
#: building a ``DispatchRecord`` (one ``tuple.__new__`` call fewer).
CALLS_PER_REQUEST_BUDGET = 44.71 + 2

#: Every priming submission runs its own dispatch pass: one per request
#: each source has in flight from the start.
PRIMING_PASSES = TENANTS * WINDOW

#: Index touches that no completion pays for: each tenant's first head
#: request, and the dispatches still running at the horizon.
PRIMING_TOUCHES = TENANTS + THREADS

#: Completions per re-filing that refresh round-off may add: a refresh
#: reports a wallclock-delta product, so a request's last report can
#: overrun its credit by a rounding error, which is charged and then
#: reconciled at completion, each a touch (9 per 2020 completions in
#: :func:`profiled_cell`).
COMPLETIONS_PER_ROUNDING_TOUCH = 100

INDEXED_THREADS = 16
INDEXED_RATE = 1000.0
INDEXED_TENANTS = 100
INDEXED_HORIZON = 0.5

#: The same budget for :func:`indexed_cell`: 109.2 while every
#: completion re-filed its tenant in the selection index, 91.8 since a
#: zero-charge completion under known costs skips it, 55.2 since the
#: index is one sorted list (a query walks it from the front instead of
#: draining a gate heap into per-thread ready heaps); that list measured
#: 47.12, 46.12 once each event's heap entry became its own handle,
#: 43.23 once the GPS reference's heap held one entry per active flow,
#: and 38.43 once the server wrote into the collector's run record.
#: Run alone it measured 38.41 before and 39.41 after the server's free
#: list (one ``insort`` per completion), and 38.41 again once a dispatch
#: extended the flat dispatch log.
INDEXED_CALLS_PER_REQUEST_BUDGET = 38.43 + 2

#: :data:`PRIMING_TOUCHES` of :func:`indexed_cell`.
INDEXED_PRIMING_TOUCHES = INDEXED_TENANTS + INDEXED_THREADS

#: cProfile calls per completed request of functions under
#: ``repro/workloads/`` in :func:`spec_cell`.  Drawn one request at a
#: time, the closed-loop samplers made 2.22 (``sample_single`` and
#: ``NormalCost.sample`` for every submitted request); drawn in blocks
#: of 64 they make 0.13, three calls per block, most of them the first
#: block of each of the 100 tenants.  One frame per request exceeds it.
WORKLOAD_CALLS_PER_REQUEST_BUDGET = 0.2

#: cProfile calls per completed request of functions under
#: ``repro/metrics/`` in :func:`profiled_cell`: 0.52, a handful of
#: calls per 100 ms sample plus the fold at ``result()``.  The
#: collector's submit, dispatch and completion listeners made 3.33,
#: one frame each per request.
METRICS_CALLS_PER_REQUEST_BUDGET = 1.0

WORKLOADS_DIR = str(Path(repro.workloads.__file__).parent)
METRICS_DIR = str(Path(repro.metrics.__file__).parent)


def profile_run(sim, server, collector, horizon):
    """Run ``sim`` to ``horizon`` and reduce its metrics under cProfile.
    Returns the profile stats, the number of completed requests and the
    selection index's churn counters."""
    profile = cProfile.Profile()
    profile.enable()
    sim.run(until=horizon)
    collector.result()
    profile.disable()
    churn = server.scheduler.selection_index.stats()
    return pstats.Stats(profile), server.completed_requests, churn


def total_calls(stats: pstats.Stats) -> int:
    return sum(entry[1] for entry in stats.stats.values())


@pytest.fixture(scope="module")
def profiled_cell():
    """2DFQ on 4 threads x 100 units/s, four cost-1 and four cost-100
    closed-loop tenants, 10 ms refresh, 100 ms sampling, 10 s simulated.
    Returns the profile stats, the number of completed requests and the
    selection index's churn counters."""
    sim = Simulation()
    scheduler = make_scheduler("2dfq", THREADS, thread_rate=RATE)
    server = ThreadPoolServer(
        sim, scheduler, num_threads=THREADS, rate=RATE, refresh_interval=0.01
    )
    collector = MetricsCollector(server, sample_interval=0.1)
    for index in range(TENANTS // 2):
        BackloggedSource(server, f"web-{index}", lambda: ("get", 1.0), WINDOW).start()
        BackloggedSource(
            server, f"scan-{index}", lambda: ("scan", 100.0), WINDOW
        ).start()
    return profile_run(sim, server, collector, HORIZON)


@pytest.fixture(scope="module")
def indexed_cell():
    """Figure 8a's shape, reduced: 2DFQ with known costs on 16 threads x
    1000 units/s, 50 cost-1 and 50 cost-1000 closed-loop tenants, no
    refresh, 100 ms sampling, 0.5 s simulated; returns what
    :func:`profiled_cell` returns."""
    sim = Simulation()
    scheduler = make_scheduler("2dfq", INDEXED_THREADS, thread_rate=INDEXED_RATE)
    server = ThreadPoolServer(
        sim,
        scheduler,
        num_threads=INDEXED_THREADS,
        rate=INDEXED_RATE,
        refresh_interval=None,
    )
    collector = MetricsCollector(server, sample_interval=0.1)
    for index in range(INDEXED_TENANTS // 2):
        BackloggedSource(server, f"small-{index}", lambda: ("s", 1.0), WINDOW).start()
        BackloggedSource(
            server, f"large-{index}", lambda: ("l", 1000.0), WINDOW
        ).start()
    return profile_run(sim, server, collector, INDEXED_HORIZON)


@pytest.fixture(scope="module")
def spec_cell():
    """:func:`indexed_cell`'s server with Figure 8a's tenants built from
    their specs (50 small, 50 expensive, normal costs) by
    :func:`attach_specs`; returns what :func:`profiled_cell` returns."""
    sim = Simulation()
    scheduler = make_scheduler("2dfq", INDEXED_THREADS, thread_rate=INDEXED_RATE)
    server = ThreadPoolServer(
        sim,
        scheduler,
        num_threads=INDEXED_THREADS,
        rate=INDEXED_RATE,
        refresh_interval=None,
    )
    collector = MetricsCollector(server, sample_interval=0.1)
    attach_specs(server, expensive_requests_population(INDEXED_TENANTS // 2), seed=1)
    return profile_run(sim, server, collector, INDEXED_HORIZON)


def calls_of(stats: pstats.Stats, function) -> int:
    """cProfile's call count of one Python function."""
    code = function.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats.stats[key][1] if key in stats.stats else 0


def test_calls_per_completed_request_stay_within_budget(profiled_cell):
    stats, completed, _ = profiled_cell
    assert completed > 1000
    calls = total_calls(stats) / completed
    assert calls <= CALLS_PER_REQUEST_BUDGET, (
        f"{calls:.2f} calls per completed request, budget "
        f"{CALLS_PER_REQUEST_BUDGET:.2f}"
    )


def test_indexed_calls_per_completed_request_stay_within_budget(indexed_cell):
    stats, completed, _ = indexed_cell
    assert completed > 1000
    calls = total_calls(stats) / completed
    assert calls <= INDEXED_CALLS_PER_REQUEST_BUDGET, (
        f"{calls:.2f} calls per completed request, budget "
        f"{INDEXED_CALLS_PER_REQUEST_BUDGET:.2f}"
    )


def test_one_index_touch_per_completed_request(indexed_cell):
    # Known costs: a completion charges exactly 0.0 and the oracle
    # learns nothing, so only the dispatch re-files the tenant.
    _, completed, churn = indexed_cell
    assert churn["touches"] <= completed + INDEXED_PRIMING_TOUCHES, churn


def test_one_index_touch_per_completed_request_on_a_small_backlog(profiled_cell):
    # The same bound with refresh charging on: a refresh that stays
    # within the request's credit charges nothing and re-files nothing.
    _, completed, churn = profiled_cell
    rounding = completed // COMPLETIONS_PER_ROUNDING_TOUCH
    assert churn["touches"] <= completed + PRIMING_TOUCHES + rounding, churn


def test_one_dispatch_pass_per_completion(profiled_cell):
    stats, completed, _ = profiled_cell
    passes = calls_of(stats, ThreadPoolServer._dispatch_idle)
    assert passes > 0
    assert passes <= completed + PRIMING_PASSES


def test_workload_layer_runs_no_frame_per_request(spec_cell):
    stats, completed, _ = spec_cell
    assert completed > 1000
    calls = sum(
        entry[1] for key, entry in stats.stats.items()
        if key[0].startswith(WORKLOADS_DIR)
    )
    assert calls / completed < WORKLOAD_CALLS_PER_REQUEST_BUDGET, (
        f"{calls / completed:.3f} workload-layer calls per completed request"
    )


def test_metrics_layer_runs_no_frame_per_request(profiled_cell):
    stats, completed, _ = profiled_cell
    calls = sum(
        entry[1] for key, entry in stats.stats.items()
        if key[0].startswith(METRICS_DIR)
    )
    assert calls / completed < METRICS_CALLS_PER_REQUEST_BUDGET, (
        f"{calls / completed:.3f} metrics-layer calls per completed request"
    )
