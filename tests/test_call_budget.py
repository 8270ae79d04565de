"""Per-request call budget of the simulator's hot path.

A reduced ``quickstart``-shaped cell (the e2e benchmark's closed-loop
workload) runs under :mod:`cProfile`, whose call counts are exact and
deterministic, so the budget can be pinned tightly: a change that adds
a Python frame to the per-request chain (``submit`` -> ``enqueue`` ->
dispatch pass -> ``dequeue`` -> ``_start`` -> ``Simulation.at``, then
``_finish`` -> ``complete`` -> listeners -> resubmit) fails here before
it shows as lost requests per second.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro import Simulation, ThreadPoolServer, make_scheduler
from repro.metrics import MetricsCollector
from repro.simulator import BackloggedSource

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
#: full-horizon e2e ``quickstart`` cell went from 76.7 to 57.6).
CALLS_PER_REQUEST_BUDGET = 58.0 + 2

#: Every priming submission runs its own dispatch pass: one per request
#: each source has in flight from the start.
PRIMING_PASSES = TENANTS * WINDOW


@pytest.fixture(scope="module")
def profiled_cell():
    """2DFQ on 4 threads x 100 units/s, four cost-1 and four cost-100
    closed-loop tenants, 10 ms refresh, 100 ms sampling, 10 s simulated.
    Returns the profile stats and the number of completed requests."""
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
    profile = cProfile.Profile()
    profile.enable()
    sim.run(until=HORIZON)
    collector.result()
    profile.disable()
    return pstats.Stats(profile), server.completed_requests


def calls_of(stats: pstats.Stats, function) -> int:
    """cProfile's call count of one Python function."""
    code = function.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return stats.stats[key][1] if key in stats.stats else 0


def test_calls_per_completed_request_stay_within_budget(profiled_cell):
    stats, completed = profiled_cell
    assert completed > 1000
    total = sum(entry[1] for entry in stats.stats.values())
    assert total / completed <= CALLS_PER_REQUEST_BUDGET, (
        f"{total / completed:.2f} calls per completed request, budget "
        f"{CALLS_PER_REQUEST_BUDGET:.2f}"
    )


def test_one_dispatch_pass_per_completion(profiled_cell):
    stats, completed = profiled_cell
    passes = calls_of(stats, ThreadPoolServer._dispatch_idle)
    assert passes > 0
    assert passes <= completed + PRIMING_PASSES
