"""The six figure cells of the end-to-end benchmark.

Each workload runs one figure configuration through the public
experiment API, from seed to figure data, and returns the figure data
per simulated run ("cell") plus the number of simulated requests that
completed.  Every workload is a batch job: a fixed amount of simulated
work, with load expressed in simulated time, so host seconds measure
the simulator and nothing else.

In the closed-loop cells the seed goes into the experiment config
(cost draws, router and retry randomness).  The open-loop cells
(``production``, ``unpredictable``) run one config at
:data:`POPULATION_SEED` -- one tenant population, one request multiset,
one cost sequence per backlogged tenant -- and the seed rotates every
open-loop tenant's arrivals by its own phase: a new interleaving of the
same work.  Their costs are heavy-tailed, so redrawing any of that per
seed changes the amount of work by 10-40% between seeds, and a host-time
benchmark would then measure the seed rather than the code.

``scale`` multiplies each workload's simulated horizon (1.0 is the
benchmark; the smoke test runs smaller).  Why each workload is in the
set is recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import Simulation, ThreadPoolServer, make_scheduler
from repro.experiments.expensive_requests import (
    expensive_requests_config,
    occupancy_expensive_fraction,
    run_expensive_requests,
)
from repro.experiments.fleet import run_figfleet
from repro.experiments.production import (
    lag_sigma_cdfs,
    production_config,
    production_specs,
    production_trace,
)
from repro.experiments.runner import run_comparison
from repro.experiments.unpredictable import unpredictable_config
from repro.fleet import router_names
from repro.metrics import MetricsCollector
from repro.obs.audit import AuditConfig
from repro.obs.session import trace_session
from repro.simulator import BackloggedSource
from repro.simulator.rng import make_rng
from repro.workloads.trace import TraceRecord, scramble_trace

__all__ = [
    "POPULATION_SEED",
    "REDUCERS",
    "WORKLOADS",
    "CellResult",
    "cell_labels",
    "digest",
]

#: Figure data of one simulated run: plain JSON-like values.
Figure = Dict[str, Any]

#: Config seed of the open-loop cells: population, requests and costs.
POPULATION_SEED = 0

# Simulated horizons at scale 1, chosen so one repeat of each workload
# takes 2-3 host seconds on a 2-core x86 box: several repeats then fit
# in one timed run, and their median is what the benchmark reports.
QUICKSTART_HORIZON = 150.0  # 2.5x examples/quickstart.py
EXPENSIVE_DURATION = 2.0
PRODUCTION_DURATION = 7.5
UNPREDICTABLE_DURATION = 3.0
FLEET_DURATION = 7.5

QUICKSTART_THREADS = 4
QUICKSTART_RATE = 100.0


@dataclasses.dataclass
class CellResult:
    """What one workload produced: figure data per cell, in run order,
    and the simulated requests completed over all of its cells."""

    figures: Dict[str, Figure]
    completed: int


# -- reductions ----------------------------------------------------------------


def _latency_rows(run: Any) -> Dict[str, List[float]]:
    rows = {}
    for tenant in sorted(run.latencies):
        stats = run.latency_stats(tenant)
        rows[tenant] = [
            stats.count, stats.mean, stats.p1, stats.p50, stats.p99, stats.maximum
        ]
    return rows


def _run_figure(run: Any, fair_rate: float, occupancy: np.ndarray) -> Figure:
    """The figure data every single-server cell reports: completions,
    per-tenant latency stats, lag sigmas, the Gini mean and the
    per-thread occupancy vector."""
    return {
        "completed": sum(len(v) for v in run.latencies.values()),
        "latency": _latency_rows(run),
        "lag_sigma": run.lag_sigmas(reference_rate=fair_rate),
        "gini_mean": float(np.mean(run.gini_values)) if len(run.gini_values) else 0.0,
        "occupancy": [float(v) for v in occupancy],
    }


def _completed(figures: Dict[str, Figure]) -> int:
    return sum(int(figure["completed"]) for figure in figures.values())


# Figure reductions: each takes a finished run (or comparison) to its
# figure data.  The traced pass times them as ``metrics.reduce``, so the
# workloads call them through this module's globals.


def quickstart_figure(run: Any) -> Figure:
    fair_rate = QUICKSTART_THREADS * QUICKSTART_RATE / 8
    return _run_figure(
        run, fair_rate, occupancy_expensive_fraction(run, QUICKSTART_THREADS)
    )


def expensive_figures(result: Any) -> Dict[str, Figure]:
    fair_rate = result.fair_rate()
    return {
        name: _run_figure(
            run, fair_rate, occupancy_expensive_fraction(run, result.config.num_threads)
        )
        for name, run in result.runs.items()
    }


def production_figures(result: Any) -> Dict[str, Figure]:
    fair_rate = result.fair_rate()
    num_threads = result.config.num_threads
    figures = {
        name: _run_figure(run, fair_rate, run.thread_cost_partition(num_threads))
        for name, run in result.runs.items()
    }
    for name, cdf in lag_sigma_cdfs(result).items():
        figures[name]["lag_sigma_cdf"] = [float(v) for v in cdf.values]
    return figures


def _fleet_figure(run: Any, fair_rate: float, row: Tuple[Any, ...]) -> Figure:
    metrics = run.metrics
    return {
        "completed": metrics.completed(),
        "row": list(row),
        "latency": _latency_rows(metrics),
        "lag_sigma": metrics.lag_sigmas(reference_rate=fair_rate),
    }


def fleet_figures(result: Any) -> Dict[str, Figure]:
    figures: Dict[str, Figure] = {}
    for row in result.rows():
        figures[row[0]] = _fleet_figure(result.runs[row[0]], result.fair_rate, row)
    for row in result.ablation_rows():
        figures[f"ablation-{row[0]}"] = _fleet_figure(
            result.ablation[row[0]], result.fair_rate, row
        )
    return figures


#: The reductions above, by name (the traced pass wraps them).
REDUCERS = ("quickstart_figure", "expensive_figures", "production_figures", "fleet_figures")


# -- workloads -----------------------------------------------------------------


def _phase_shifted(
    trace: Sequence[TraceRecord], duration: float, seed: int
) -> List[TraceRecord]:
    """``trace`` with every tenant's arrivals rotated by its own seeded
    phase, wrapping at the horizon: the same requests, so the same work
    and load, in a seed-dependent interleaving."""
    tenants = sorted({record.tenant for record in trace})
    phases = make_rng(seed, "bench-phase").uniform(0.0, duration, len(tenants))
    phase = dict(zip(tenants, phases.tolist()))
    shifted = [
        TraceRecord((r.time + phase[r.tenant]) % duration, r.tenant, r.api, r.cost)
        for r in trace
    ]
    shifted.sort(key=lambda r: (r.time, r.tenant))
    return shifted


def _quickstart(seed: int, scale: float, work_dir: Path) -> CellResult:
    """``examples/quickstart.py`` at 2.5x its horizon: 4 cost-1 and 4
    cost-100 closed-loop tenants on 4 threads x 100 units/s, 10 ms
    refresh charging, 100 ms sampling.  Costs are constant, so the seed
    changes nothing."""
    figures: Dict[str, Figure] = {}
    for name in ("wfq", "wf2q", "2dfq"):
        sim = Simulation()
        scheduler = make_scheduler(
            name, num_threads=QUICKSTART_THREADS, thread_rate=QUICKSTART_RATE
        )
        server = ThreadPoolServer(
            sim, scheduler, num_threads=QUICKSTART_THREADS, rate=QUICKSTART_RATE,
            refresh_interval=0.01,
        )
        collector = MetricsCollector(server, sample_interval=0.1)
        for index in range(4):
            BackloggedSource(
                server, f"web-{index}", lambda: ("get", 1.0), window=4
            ).start()
        for index in range(4):
            BackloggedSource(
                server, f"analytics-{index}", lambda: ("scan", 100.0), window=4
            ).start()
        sim.run(until=QUICKSTART_HORIZON * scale)
        figures[name] = quickstart_figure(collector.result())
    return CellResult(figures, _completed(figures))


def _expensive(
    seed: int, scale: float, work_dir: Path, schedulers: Optional[Tuple[str, ...]] = None
) -> CellResult:
    """Figure 8a: 100 closed-loop tenants, 50 of them expensive, on 16
    threads x 1000 units/s with known costs."""
    config = expensive_requests_config(duration=EXPENSIVE_DURATION * scale, seed=seed)
    if schedulers is not None:
        config = dataclasses.replace(config, schedulers=schedulers)
    result = run_expensive_requests(
        num_expensive=50, total_tenants=100, config=config, jobs=1, cache=None
    )
    figures = expensive_figures(result)
    return CellResult(figures, _completed(figures))


def _production(seed: int, scale: float, work_dir: Path) -> CellResult:
    """Figures 9/10: T1..T12 plus 250 random open-loop tenants on 32
    threads x 1e6 units/s, open-loop load thinned to utilization 1.2."""
    config = production_config(duration=PRODUCTION_DURATION * scale, seed=POPULATION_SEED)
    specs = production_specs(num_random=250, seed=POPULATION_SEED)
    trace = production_trace(specs, config, open_loop_utilization=1.2)
    result = run_comparison(
        specs,
        config,
        trace=_phase_shifted(trace, config.duration, seed),
        jobs=1,
        cache=None,
    )
    figures = production_figures(result)
    return CellResult(figures, _completed(figures))


def _unpredictable(seed: int, scale: float, work_dir: Path) -> CellResult:
    """Figure 11 at 66% unpredictable: T1..T12 backlogged plus 300
    random open-loop tenants, two thirds of them scrambled, under the
    estimating schedulers with alpha = 0.99 and 10 ms refresh charging."""
    config = unpredictable_config(
        duration=UNPREDICTABLE_DURATION * scale, seed=POPULATION_SEED
    )
    specs = production_specs(num_random=300, seed=POPULATION_SEED, named_mode="backlogged")
    trace = production_trace(specs, config, open_loop_utilization=1.2)
    random_ids = sorted(spec.tenant_id for spec in specs if spec.tenant_id.startswith("R"))
    chosen = make_rng(POPULATION_SEED, "unpredictable-selection").choice(
        random_ids, size=round(0.66 * len(random_ids)), replace=False
    )
    trace = scramble_trace(trace, list(chosen), seed=POPULATION_SEED)
    result = run_comparison(
        specs,
        config,
        trace=_phase_shifted(trace, config.duration, seed),
        jobs=1,
        cache=None,
    )
    figures = production_figures(result)
    return CellResult(figures, _completed(figures))


def _fleet(seed: int, scale: float, work_dir: Path) -> CellResult:
    """``figfleet``: 4 servers x 4 threads behind a round-robin router,
    one server crashing at 35% of the run; healthy / crash / failover
    plus the crash+failover ablation over every router."""
    result = run_figfleet(
        scheduler="2dfq",
        num_servers=4,
        num_threads=4,
        duration=FLEET_DURATION * scale,
        router="round-robin",
        seed=seed,
    )
    figures = fleet_figures(result)
    return CellResult(figures, _completed(figures))


def _audited(seed: int, scale: float, work_dir: Path) -> CellResult:
    """The ``expensive`` cell's 2DFQ run under an audited trace session,
    exactly as the figures CLI's ``--audit`` runs it, export included."""
    with trace_session(work_dir, audit=AuditConfig()):
        return _expensive(seed, scale, work_dir, schedulers=("2dfq",))


#: Workload name -> runner, in the order the benchmark reports them.
WORKLOADS: Dict[str, Callable[[int, float, Path], CellResult]] = {
    "quickstart": _quickstart,
    "expensive": _expensive,
    "production": _production,
    "unpredictable": _unpredictable,
    "fleet": _fleet,
    "audited": _audited,
}


def cell_labels(workload: str) -> List[str]:
    """The cells a workload runs, known before it runs (a workload that
    raises fails every one of them)."""
    if workload == "fleet":
        return ["healthy", "crash", "failover"] + [
            f"ablation-{name}" for name in router_names()
        ]
    if workload == "unpredictable":
        return ["wfq-e", "wf2q-e", "2dfq-e"]
    if workload == "audited":
        return ["2dfq"]
    return ["wfq", "wf2q", "2dfq"]


# -- digests --------------------------------------------------------------------


def _canonical(value: Any) -> str:
    """Order-stable text of figure data; floats as ``repr(float)`` so a
    digest changes with any bit of any value."""
    if isinstance(value, dict):
        items = ",".join(f"{key!r}:{_canonical(value[key])}" for key in sorted(value))
        return "{" + items + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    if isinstance(value, (bool, str)) or value is None:
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    return "nan" if math.isnan(number) else repr(number)


def digest(figure: Figure) -> str:
    """SHA-256 of one cell's canonical figure data (first 16 hex)."""
    return hashlib.sha256(_canonical(figure).encode()).hexdigest()[:16]
