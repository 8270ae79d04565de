"""Figure 8: known request costs with increasingly many expensive tenants.

Paper §6.1.1: 100 continuously backlogged tenants share a server of 16
worker threads, each with capacity 1000 units/second.  ``n`` tenants are
*expensive* (costs ~ N(1000, 100)); the remaining ``100 - n`` are small
(costs ~ N(1, 0.1)).  Costs are known (oracle estimation).

Reproduced series:

* **Figure 8a** -- service rate (100 ms intervals) and service lag of
  one small tenant under WFQ / WF2Q / 2DFQ with n = 50;
* **Figure 8b** -- thread occupancy: which threads run expensive vs
  cheap requests (2DFQ partitions, the baselines do not);
* **Figure 8c** -- sigma of the small tenant's service lag as the number
  of expensive tenants sweeps 0..100: WFQ grows roughly linearly, WF2Q
  plateaus at its worst case, 2DFQ stays about an order of magnitude
  lower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..metrics.collector import RunMetrics, dispatch_columns
from ..workloads.synthetic import expensive_requests_population
from .config import ExperimentConfig
from .runner import ComparisonResult, run_comparison

__all__ = [
    "SMALL_PROBE",
    "expensive_requests_config",
    "run_expensive_requests",
    "sigma_vs_expensive",
    "small_tenant_series",
    "occupancy_expensive_fraction",
    "SigmaSweepResult",
]

#: The small tenant whose service the figure tracks.
SMALL_PROBE = "S0"

DEFAULT_SCHEDULERS: Tuple[str, ...] = ("wfq", "wf2q", "2dfq")


def expensive_requests_config(
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    num_threads: int = 16,
    thread_rate: float = 1000.0,
    duration: float = 15.0,
    seed: int = 0,
) -> ExperimentConfig:
    """The §6.1.1 experiment configuration (paper-scale defaults)."""
    return ExperimentConfig(
        name="fig8-expensive-requests",
        schedulers=tuple(schedulers),
        num_threads=num_threads,
        thread_rate=thread_rate,
        duration=duration,
        sample_interval=0.1,
        refresh_interval=None,  # known costs: no interim measurement needed
        seed=seed,
    )


def run_expensive_requests(
    num_expensive: int = 50,
    total_tenants: int = 100,
    config: ExperimentConfig | None = None,
    jobs: int = 1,
    cache=None,
) -> ComparisonResult:
    """Run the Figure 8a/8b workload (default: 50% expensive tenants).

    ``jobs`` and ``cache`` forward to :func:`run_comparison` (default:
    serial, uncached).
    """
    if config is None:
        config = expensive_requests_config()
    specs = expensive_requests_population(
        num_small=total_tenants - num_expensive, total=total_tenants
    )
    return run_comparison(specs, config, jobs=jobs, cache=cache)


@dataclass
class SigmaSweepResult:
    """Figure 8c data: sigma(service lag) of a small tenant vs the
    number of expensive tenants, per scheduler."""

    expensive_counts: List[int]
    sigmas: Dict[str, List[float]]  # scheduler -> sigma (seconds) per count
    fair_rate: float

    def rows(self) -> List[tuple]:
        """(n_expensive, sigma_wfq, sigma_wf2q, sigma_2dfq, ...) rows."""
        names = list(self.sigmas)
        out = []
        for i, n in enumerate(self.expensive_counts):
            out.append(tuple([n] + [self.sigmas[name][i] for name in names]))
        return out


def sigma_vs_expensive(
    expensive_counts: Sequence[int] = (0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 99),
    total_tenants: int = 100,
    config: ExperimentConfig | None = None,
    cache=None,
) -> SigmaSweepResult:
    """Sweep the expensive-tenant count and measure sigma(lag) of the
    small probe tenant (Figure 8c).

    Counts equal to ``total_tenants`` are clamped to ``total - 1`` so a
    small probe tenant always exists to measure.  Every count shares
    ``cache`` (a :class:`~repro.parallel.RunCache`, default none).
    """
    if config is None:
        config = expensive_requests_config()
    fair_rate = config.capacity / total_tenants
    sigmas: Dict[str, List[float]] = {name: [] for name in config.schedulers}
    counts = [min(n, total_tenants - 1) for n in expensive_counts]
    for n_expensive in counts:
        result = run_expensive_requests(
            num_expensive=n_expensive,
            total_tenants=total_tenants,
            config=config,
            cache=cache,
        )
        for name in config.schedulers:
            sigmas[name].append(
                result[name].lag_sigma(SMALL_PROBE, reference_rate=fair_rate)
            )
    return SigmaSweepResult(
        expensive_counts=list(counts), sigmas=sigmas, fair_rate=fair_rate
    )


def small_tenant_series(
    result: ComparisonResult, tenant: str = SMALL_PROBE
) -> Dict[str, dict]:
    """Figure 8a series per scheduler: sampled times, service rate per
    interval, and lag in seconds for the probe tenant."""
    fair_rate = result.fair_rate()
    out: Dict[str, dict] = {}
    for name, run in result.runs.items():
        series = run.service_series(tenant)
        out[name] = {
            "times": series.times,
            "service_rate": series.service_rate(),
            "lag_seconds": series.lag_seconds(fair_rate),
        }
    return out


def occupancy_expensive_fraction(
    run: RunMetrics, num_threads: int, cost_threshold: float = 100.0
) -> np.ndarray:
    """Per-thread fraction of busy time spent on expensive requests
    (Figure 8b in one number per thread).  Under 2DFQ the vector is a
    step function -- some threads ~1.0, the rest ~0.0; under WFQ/WF2Q it
    is near-uniform."""
    threads, costs, durations = dispatch_columns(run.dispatch_log, num_threads)
    busy = np.bincount(threads, weights=durations, minlength=num_threads)
    expensive = costs >= cost_threshold
    expensive_time = np.bincount(
        threads[expensive], weights=durations[expensive], minlength=num_threads
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(busy > 0, expensive_time / busy, 0.0)
