"""Golden digests of the per-run figure numbers, in both collector modes.

Each cell runs one scheduler over one small workload and reduces its
:class:`~repro.metrics.collector.RunMetrics` to five canonical texts:
per-tenant ``latency_stats`` rows, ``lag_sigmas`` (in cost units and in
seconds of fair share), the Gini samples, every tenant's service series
and the dispatch log.  Their SHA-256 digests are compared with
``tests/data/golden_run_metrics.json``, so any change to any bit of the
numbers the figures are drawn from fails tier-1, not only the end-to-end
benchmark.

Two workloads, each under WFQ, WF2Q, 2DFQ and 2DFQ^E and in the
``exact`` and ``streaming`` metrics modes:

* ``closed`` -- backlogged tenants with mixed costs, a warmup, and one
  tenant that joins after the warmup (its lag is backfilled with zeros);
* ``open`` -- a pre-generated open-loop Poisson trace with a warmup and
  one tenant whose arrivals start late.

Regenerate after an *intentional* change to the numbers with::

    PYTHONPATH=src:tests python -c \
        "from test_golden_run_metrics import write_digests; write_digests()"
"""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
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
MODES = ("exact", "streaming")
WORKLOADS = ("closed", "open")


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


def run_digests(workload, scheduler, mode):
    """The five figure-number digests of one cell."""
    specs, config, trace = {"closed": _closed_loop, "open": _open_loop}[workload]()
    config = dataclasses.replace(config, metrics_mode=mode)
    run = run_single(scheduler, specs, config, trace=trace)
    tenants = run.tenants()
    fair_rate = config.capacity / len(tenants)
    numbers = {
        "latency_stats": [
            [t, stats.count, stats.mean, stats.p1, stats.p50, stats.p99, stats.maximum]
            for t, stats in ((t, run.latency_stats(t)) for t in tenants)
        ],
        "lag_sigmas": [run.lag_sigmas(), run.lag_sigmas(reference_rate=fair_rate)],
        "gini_values": [run.gini_times.tolist(), run.gini_values.tolist()],
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
        "dispatch_log": [
            [r.thread_id, r.tenant_id, r.api, r.cost, r.start, r.end]
            for r in run.dispatch_log
        ],
    }
    return {
        name: hashlib.sha256(_canonical(value).encode()).hexdigest()
        for name, value in numbers.items()
    }


CELLS = [
    f"{workload}/{scheduler}/{mode}"
    for workload in WORKLOADS
    for scheduler in SCHEDULERS
    for mode in MODES
]


def write_digests():
    """Re-record the committed digests (intentional changes only)."""
    digests = {cell: run_digests(*cell.split("/")) for cell in CELLS}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("cell", CELLS)
def test_figure_numbers_match_golden_digest(cell):
    expected = json.loads(DIGESTS.read_text())[cell]
    got = run_digests(*cell.split("/"))
    drifted = sorted(name for name in expected if got[name] != expected[name])
    assert not drifted, f"{cell}: {drifted} drifted from the golden digests"
