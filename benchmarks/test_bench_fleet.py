"""Fleet scaling: router cost as the server count grows.

The routing tier sits on every request's critical path, so its cost
must stay flat as the fleet grows.  This bench runs the figfleet
workload (closed-loop probes + expensive tenants + open-loop Poisson
arrivals, scaled to fleet capacity) through 1, 4, and 16 servers under
every registered router and records wallclock throughput into the
``fleet`` section of ``BENCH_manifest.json``.

Env knobs (CI smoke uses the reduced scale):

* ``REPRO_BENCH_FLEET_DURATION`` -- simulated seconds per run
  (default 4.0).
"""

from __future__ import annotations

import os
import time

from repro.experiments.fleet import fleet_population, run_fleet
from repro.experiments.report import format_table
from repro.fleet import router_names

from conftest import emit, merge_bench_manifest, once

SERVER_COUNTS = (1, 4, 16)
NUM_THREADS = 4
RATE = 1000.0


def _run_one(num_servers: int, router: str, duration: float) -> dict:
    specs = fleet_population(capacity=num_servers * NUM_THREADS * RATE)
    started = time.perf_counter()
    result = run_fleet(
        num_servers=num_servers,
        num_threads=NUM_THREADS,
        thread_rate=RATE,
        duration=duration,
        router=router,
        specs=specs,
        seed=0,
    )
    elapsed = time.perf_counter() - started
    routed = result.counts["routed"]
    return {
        "servers": num_servers,
        "router": router,
        "sim_duration": duration,
        "wall_seconds": round(elapsed, 4),
        "routed": routed,
        "completed": result.counts["completed"],
        "routes_per_wall_second": round(routed / elapsed, 1),
    }


def _sweep(duration: float) -> list:
    rows = []
    for num_servers in SERVER_COUNTS:
        for router in router_names():
            rows.append(_run_one(num_servers, router, duration))
    return rows


def test_bench_fleet_router_scaling(benchmark, capsys):
    duration = float(os.environ.get("REPRO_BENCH_FLEET_DURATION", "4.0"))
    rows = once(benchmark, lambda: _sweep(duration))
    merge_bench_manifest(
        fleet={
            "num_threads": NUM_THREADS,
            "thread_rate": RATE,
            "sim_duration": duration,
            "results": rows,
        }
    )
    emit(
        capsys,
        "BENCH: fleet router scaling 1-4-16 servers",
        format_table(
            ["servers", "router", "routed", "completed", "wall s", "routes/s"],
            [
                (
                    r["servers"],
                    r["router"],
                    r["routed"],
                    r["completed"],
                    r["wall_seconds"],
                    r["routes_per_wall_second"],
                )
                for r in rows
            ],
        ),
    )
    assert all(r["completed"] > 0 for r in rows)
    # Work scales with the fleet: the 16-server runs must admit (and
    # finish) more than the single-server runs for the same router.
    by_router = {}
    for r in rows:
        by_router.setdefault(r["router"], {})[r["servers"]] = r
    for router, sizes in by_router.items():
        assert sizes[16]["completed"] > sizes[1]["completed"], router
