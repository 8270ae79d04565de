"""Figures 9 and 10: known costs on the production-like workload.

Paper §6.1.2: 250 randomly chosen tenants replayed from Azure Storage
traces plus the reference tenants T1..T12, on a server of 32 worker
threads of capacity 1e6 units/second; aggregate request costs span 250
to 5 million.  Optionally adds the fixed-cost probe tenants t1..t7
(costs 2^8 .. 2^20).

Reproduced series:

* **Figure 9a** -- T1's service received and service lag over time under
  WFQ / WF2Q / 2DFQ, plus the Gini fairness index across all tenants;
* **Figure 9b** -- per-thread request-size occupancy (2DFQ partitions
  requests by size across the pool);
* **Figure 10 (left)** -- CDF across tenants of sigma(service lag);
* **Figure 10 (right)** -- distribution of service lag for t1..t7.

Our substitution for the proprietary traces is the generative model in
:mod:`repro.workloads.azure`; open-loop load is thinned to a target
utilization so the backlogged reference tenants keep the server
saturated without unbounded queue growth (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics.latency import percentiles, quantiles
from ..workloads.azure import backlogged_variant, named_tenants, random_tenants
from ..workloads.spec import TenantSpec
from ..workloads.synthetic import FIXED_COST_IDS, fixed_cost_tenants
from ..workloads.trace import Trace, generate_trace, thin_trace
from ..workloads.arrivals import OpenLoopProcess
from .config import ExperimentConfig
from .runner import ComparisonResult, run_comparison

__all__ = [
    "production_config",
    "production_specs",
    "production_trace",
    "run_production",
    "lag_sigma_cdfs",
    "fixed_cost_lag_ranges",
]

DEFAULT_SCHEDULERS: Tuple[str, ...] = ("wfq", "wf2q", "2dfq")


def production_config(
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    num_threads: int = 32,
    thread_rate: float = 1.0e6,
    duration: float = 15.0,
    seed: int = 0,
) -> ExperimentConfig:
    """The §6.1.2 configuration (32 threads, 1e6 units/s each)."""
    return ExperimentConfig(
        name="fig9-production-known-costs",
        schedulers=tuple(schedulers),
        num_threads=num_threads,
        thread_rate=thread_rate,
        duration=duration,
        sample_interval=0.1,
        refresh_interval=None,
        seed=seed,
    )


def production_specs(
    num_random: int = 250,
    include_fixed: bool = False,
    seed: int = 0,
    backlogged_window: int = 8,
    named_mode: str = "open-loop",
    random_unpredictable_fraction: float = 0.3,
) -> List[TenantSpec]:
    """The production tenant population.

    T1..T12 are replayed open-loop like every trace tenant in the paper
    (``named_mode="open-loop"``, the default); their arrival rates are
    calibrated so the predictable small tenants sit below an equal fair
    share of the reference 32-thread server while the heavy tenants
    (T9..T12) exceed theirs, matching their latency roles in Figure 12.
    ``named_mode="backlogged"`` runs them closed-loop instead (useful for
    service-lag-focused analyses).  The ``num_random`` generated tenants
    replay open-loop; the fixed-cost probes t1..t7 are backlogged, as
    their role is a constant-cost yardstick.
    """
    named = named_tenants(seed)
    if named_mode == "backlogged":
        specs: List[TenantSpec] = [
            backlogged_variant(spec, window=backlogged_window) for spec in named
        ]
    elif named_mode == "open-loop":
        specs = list(named)
    else:
        raise ValueError(f"unknown named_mode {named_mode!r}")
    if include_fixed:
        fixed_mode = "backlogged" if named_mode == "backlogged" else "open-loop"
        specs += fixed_cost_tenants(window=backlogged_window, mode=fixed_mode)
    specs += random_tenants(
        num_random,
        seed=seed,
        unpredictable_fraction=random_unpredictable_fraction,
    )
    return specs


def production_trace(
    specs: Sequence[TenantSpec],
    config: ExperimentConfig,
    open_loop_utilization: float = 1.2,
    speed: float = 1.0,
) -> Trace:
    """Materialize the open-loop workload at a controlled load level.

    The *random* tenants (ids ``R*``) are thinned so that total open-loop
    demand lands at ``open_loop_utilization`` of server capacity; the
    reference tenants T1..T12 are never thinned (their rates are part of
    their identity), and when they alone exceed the budget every random
    record is dropped.  The paper keeps the server busy throughout its
    experiments; the default of 1.2 runs it mildly overloaded, so queues
    of over-share tenants are always populated -- the regime where
    scheduling decisions matter.
    """
    open_loop = [s for s in specs if isinstance(s.arrivals, OpenLoopProcess)]
    trace = generate_trace(open_loop, config.duration * speed, seed=config.seed)
    budget = open_loop_utilization * config.capacity * config.duration * speed
    random_ids = [tenant for tenant in trace.tenants if tenant.startswith("R")]
    is_random = trace.tenant_mask(random_ids)
    # Python's left-to-right float sum in trace order: np.sum is pairwise,
    # and a last-ulp difference would move the keep threshold.
    random_cost = sum(trace.costs[is_random].tolist())
    fixed_cost = sum(trace.costs[~is_random].tolist())
    random_budget = budget - fixed_cost
    if random_budget <= 0:
        return trace[~is_random]
    if random_budget < random_cost:
        keep = random_budget / random_cost
        return thin_trace(trace, keep, seed=config.seed, tenants=random_ids)
    return trace


def run_production(
    num_random: int = 250,
    include_fixed: bool = False,
    config: Optional[ExperimentConfig] = None,
    open_loop_utilization: float = 1.2,
    speed: float = 1.0,
    named_mode: str = "open-loop",
    cache=None,
) -> ComparisonResult:
    """Run the Figure 9/10 experiment.

    ``cache`` (a :class:`~repro.parallel.RunCache`, default none)
    forwards to :func:`run_comparison`; the runs execute serially.
    """
    if config is None:
        config = production_config()
    specs = production_specs(
        num_random=num_random,
        include_fixed=include_fixed,
        seed=config.seed,
        named_mode=named_mode,
    )
    trace = production_trace(
        specs, config, open_loop_utilization=open_loop_utilization, speed=speed
    )
    return run_comparison(specs, config, trace=trace, speed=speed, cache=cache)


# ---------------------------------------------------------------------------
# Figure 10 reductions
# ---------------------------------------------------------------------------

@dataclass
class LagCDF:
    """Empirical CDF of per-tenant sigma(service lag) for one scheduler."""

    scheduler: str
    values: np.ndarray  # sorted sigma(lag), seconds
    freq: np.ndarray

    def quantile(self, q: float) -> float:
        if self.values.size == 0:
            return float("nan")
        return quantiles(self.values, (q,))[0]


def lag_sigma_cdfs(
    result: ComparisonResult, reference_rate: Optional[float] = None
) -> Dict[str, LagCDF]:
    """Figure 10 (left): CDFs of sigma(lag) across all tenants."""
    if reference_rate is None:
        reference_rate = result.fair_rate()
    out: Dict[str, LagCDF] = {}
    for name, run in result.runs.items():
        sigmas = run.lag_sigmas(reference_rate=reference_rate)
        values = np.sort(
            np.array([v for v in sigmas.values() if not np.isnan(v)])
        )
        freq = (
            np.arange(1, values.size + 1) / values.size
            if values.size
            else np.empty(0)
        )
        out[name] = LagCDF(scheduler=name, values=values, freq=freq)
    return out


def fixed_cost_lag_ranges(
    result: ComparisonResult, reference_rate: Optional[float] = None
) -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Figure 10 (right): per-scheduler, per-probe-tenant (t1..t7) the
    (p1, p99) range of service lag in seconds.  The paper's shape: the
    range shrinks with request size, and shrinks dramatically more under
    2DFQ (t1 range ~0.01 s vs ~0.5-0.8 s under the baselines)."""
    if reference_rate is None:
        reference_rate = result.fair_rate()
    out: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for name, run in result.runs.items():
        ranges: Dict[str, Tuple[float, float]] = {}
        for tenant in FIXED_COST_IDS:
            if tenant not in run.tenants():
                continue
            lag = run.service_series(tenant).lag_seconds(reference_rate)
            if lag.size == 0:
                continue
            p1, p99 = percentiles(lag, (1, 99))
            ranges[tenant] = (p1, p99)
        out[name] = ranges
    return out
