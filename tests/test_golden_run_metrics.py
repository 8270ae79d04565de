"""Golden digests of the per-run figure numbers, for single-server and
fleet runs.

Each cell runs one scheduler over one small workload and reduces its
:class:`~repro.metrics.collector.RunMetrics` to five canonical texts:
per-tenant ``latency_stats`` rows, ``lag_sigmas`` (in cost units and in
seconds of fair share), the Gini samples, every tenant's service series
and the dispatch log.  Their SHA-256 digests are compared with
``tests/data/golden_run_metrics.json``, so any change to any bit of the
numbers the figures are drawn from fails tier-1, not only the end-to-end
benchmark.

Two workloads, each under WFQ, WF2Q, 2DFQ and 2DFQ^E (their cells end
in ``/exact``, the name of the store the digests were first recorded
from):

* ``closed`` -- backlogged tenants with mixed costs, a warmup, and one
  tenant that joins after the warmup (its lag is backfilled with zeros);
* ``open`` -- a pre-generated open-loop Poisson trace with a warmup and
  one tenant whose arrivals start late.

Two fleet cells run the figfleet population plus a late-joining tenant
on three 2DFQ servers with a warmup: ``fleet/healthy`` without faults and
``fleet/failover`` under the canned server crash.  They digest the
latency rows, lag sigmas and service series of the fleet-wide metrics,
every tenant's worst absolute lag, and the fleet's counts
(:data:`FLEET_COUNTS`).

Regenerate after an *intentional* change to the numbers with::

    PYTHONPATH=src:tests python -c \
        "from test_golden_run_metrics import write_digests; write_digests()"
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.fleet import fleet_crash_plan, fleet_population, run_fleet
from repro.experiments.runner import run_single
from repro.workloads import (
    Backlogged,
    FixedCost,
    LogNormalCost,
    PoissonArrivals,
    TenantSpec,
    generate_trace,
)

DIGESTS = Path(__file__).parent / "data" / "golden_run_metrics.json"

SCHEDULERS = ("wfq", "wf2q", "2dfq", "2dfq-e")
WORKLOADS = ("closed", "open")
FLEET_MODES = ("healthy", "failover")
FLEET_DURATION = 2.0
#: The fleet counts a fleet cell pins, in this order.
FLEET_COUNTS = (
    "admitted",
    "rejected",
    "routed",
    "completed",
    "abandoned",
    "server_crashes",
    "server_restores",
    "detections",
    "recoveries",
    "failovers",
    "failover_retries",
)


def _closed_loop():
    specs = [
        TenantSpec(f"small-{i}", {"get": FixedCost(1.0)}, arrivals=Backlogged(window=2))
        for i in range(3)
    ] + [
        TenantSpec(
            f"big-{i}",
            {"scan": LogNormalCost(median=8.0, sigma_decades=0.3)},
            arrivals=Backlogged(window=2),
        )
        for i in range(2)
    ] + [
        TenantSpec(
            "late",
            {"get": LogNormalCost(median=2.0, sigma_decades=0.3)},
            arrivals=Backlogged(window=2, start_time=1.25),
        )
    ]
    config = ExperimentConfig(
        name="golden-closed",
        schedulers=SCHEDULERS,
        num_threads=4,
        thread_rate=100.0,
        duration=3.0,
        warmup=0.5,
        initial_estimate=5.0,
        seed=3,
    )
    return specs, config, None


def _open_loop():
    specs = [
        TenantSpec(
            f"T{i}",
            {"get": LogNormalCost(median=0.01, sigma_decades=0.4)},
            arrivals=PoissonArrivals(rate=40.0 * (i + 1)),
        )
        for i in range(4)
    ] + [
        TenantSpec(
            "late",
            {"get": LogNormalCost(median=0.02, sigma_decades=0.2)},
            arrivals=PoissonArrivals(rate=30.0, start_time=1.05),
        )
    ]
    config = ExperimentConfig(
        name="golden-open",
        schedulers=SCHEDULERS,
        num_threads=2,
        thread_rate=1.0,
        duration=2.5,
        warmup=0.3,
        sample_interval=0.05,
        initial_estimate=0.01,
        seed=5,
    )
    return [], config, generate_trace(specs, config.duration, seed=config.seed)


def _canonical(value):
    """Order-stable text; floats as ``repr(float)``, so a digest changes
    with any bit of any value."""
    if isinstance(value, dict):
        items = ",".join(f"{key!r}:{_canonical(value[key])}" for key in sorted(value))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    return "nan" if math.isnan(number) else repr(number)


def _tenant_numbers(run, capacity):
    """The per-tenant figure numbers every cell pins: latency rows, lag
    sigmas (cost units and seconds of fair share), service series."""
    tenants = run.tenants()
    fair_rate = capacity / len(tenants)
    return {
        "latency_stats": [
            [t, stats.count, stats.mean, stats.p1, stats.p50, stats.p99, stats.maximum]
            for t, stats in ((t, run.latency_stats(t)) for t in tenants)
        ],
        "lag_sigmas": [run.lag_sigmas(), run.lag_sigmas(reference_rate=fair_rate)],
        "service_series": [
            [
                t,
                series.times.tolist(),
                series.actual.tolist(),
                series.gps.tolist(),
                series.baseline,
            ]
            for t, series in ((t, run.service_series(t)) for t in tenants)
        ],
    }


def _sha256(numbers):
    return {
        name: hashlib.sha256(_canonical(value).encode()).hexdigest()
        for name, value in numbers.items()
    }


def run_digests(workload, scheduler):
    """The five figure-number digests of one cell."""
    specs, config, trace = {"closed": _closed_loop, "open": _open_loop}[workload]()
    run = run_single(scheduler, specs, config, trace=trace)
    numbers = _tenant_numbers(run, config.capacity)
    numbers["gini_values"] = [run.gini_times.tolist(), run.gini_values.tolist()]
    numbers["dispatch_log"] = [
        [r.thread_id, r.tenant_id, r.api, r.cost, r.start, r.end]
        for r in run.dispatch_log
    ]
    return _sha256(numbers)


def fleet_digests(mode):
    """The figure-number digests of one fleet cell."""
    num_servers, num_threads, thread_rate = 3, 2, 1000.0
    specs = fleet_population(
        num_probes=3,
        num_expensive=1,
        num_open_loop=3,
        capacity=num_servers * num_threads * thread_rate,
    ) + [
        TenantSpec(
            "late",
            {"probe": FixedCost(5.0)},
            arrivals=Backlogged(window=2, start_time=0.85),
        )
    ]
    result = run_fleet(
        scheduler="2dfq",
        num_servers=num_servers,
        num_threads=num_threads,
        thread_rate=thread_rate,
        duration=FLEET_DURATION,
        router="round-robin",
        specs=specs,
        plan=fleet_crash_plan(FLEET_DURATION) if mode == "failover" else None,
        warmup=0.4,
        seed=7,
    )
    run = result.metrics
    numbers = _tenant_numbers(run, num_servers * num_threads * thread_rate)
    numbers["max_abs_lag"] = [
        [t, float(np.max(np.abs(run.service_series(t).lag_units())))]
        for t in run.tenants()
    ]
    numbers["counts"] = [result.counts[name] for name in FLEET_COUNTS]
    return _sha256(numbers)


CELLS = [
    f"{workload}/{scheduler}/exact"
    for workload in WORKLOADS
    for scheduler in SCHEDULERS
] + [f"fleet/{mode}" for mode in FLEET_MODES]


def cell_digests(cell):
    parts = cell.split("/")
    if parts[0] == "fleet":
        return fleet_digests(parts[1])
    return run_digests(parts[0], parts[1])


def write_digests():
    """Re-record the committed digests (intentional changes only)."""
    digests = {cell: cell_digests(cell) for cell in CELLS}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("cell", CELLS)
def test_figure_numbers_match_golden_digest(cell):
    expected = json.loads(DIGESTS.read_text())[cell]
    got = cell_digests(cell)
    drifted = sorted(name for name in expected if got[name] != expected[name])
    assert not drifted, f"{cell}: {drifted} drifted from the golden digests"
