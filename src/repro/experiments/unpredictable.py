"""Figures 11 and 12: unknown request costs with unpredictable tenants.

Paper §6.2.1: 300 randomly selected tenants plus T1..T12; the experiment
is repeated with 0%, 33% and 66% of the random tenants made explicitly
*unpredictable* by re-sampling each of their requests "pseudo-randomly
from across all production traces disregarding the originating server or
account".  Schedulers estimate costs: WFQ^E and WF2Q^E with per-tenant
per-API EMAs (alpha = 0.99), 2DFQ^E with pessimistic estimation
(alpha = 0.99); all use retroactive and refresh charging.

Reproduced series:

* **Figure 11a** -- T1's service received over time under each scheduler
  at each unpredictability level (WFQ^E/WF2Q^E develop large-scale
  oscillations; 2DFQ^E stays smooth with occasional spikes);
* **Figure 11b** -- 2DFQ^E thread occupancy at each level (partitioning
  degrades gracefully from crisp to coarse);
* **Figure 12 (top)** -- latency distributions for T1..T12 (p1/p50/p99);
* **Figure 12 (bottom left)** -- CDFs of per-tenant sigma(lag);
* **Figure 12 (bottom right)** -- latency distributions for t1..t7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..simulator.rng import make_rng
from ..workloads.arrivals import OpenLoopProcess
from ..workloads.spec import TenantSpec
from ..workloads.trace import Trace, scramble_trace
from .config import ExperimentConfig
from .production import production_specs, production_trace
from .runner import ComparisonResult, run_comparison

__all__ = [
    "unpredictable_config",
    "run_unpredictable",
    "run_unpredictable_sweep",
    "UnpredictableSweep",
]

DEFAULT_SCHEDULERS: Tuple[str, ...] = ("wfq-e", "wf2q-e", "2dfq-e")


def unpredictable_config(
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    num_threads: int = 32,
    thread_rate: float = 1.0e6,
    duration: float = 15.0,
    seed: int = 0,
    alpha: float = 0.99,
    initial_estimate: float = 1000.0,
) -> ExperimentConfig:
    """§6.2.1 configuration: estimated costs, refresh charging at 10 ms,
    alpha = 0.99 for both the EMA and pessimistic estimators."""
    return ExperimentConfig(
        name="fig11-unpredictable",
        schedulers=tuple(schedulers),
        num_threads=num_threads,
        thread_rate=thread_rate,
        duration=duration,
        sample_interval=0.1,
        refresh_interval=0.01,
        seed=seed,
        initial_estimate=initial_estimate,
        scheduler_kwargs={name: {"alpha": alpha} for name in schedulers
                          if name.endswith("-e")},
    )


def _scrambled_trace(
    specs: Sequence[TenantSpec],
    config: ExperimentConfig,
    unpredictable_fraction: float,
    open_loop_utilization: float,
    speed: float,
) -> Trace:
    """Materialize the open-loop trace, then scramble the requested
    fraction of the random tenants into unpredictable variants."""
    trace = production_trace(
        specs, config, open_loop_utilization=open_loop_utilization, speed=speed
    )
    if unpredictable_fraction <= 0.0 or not trace:
        return trace
    # Only the random replay tenants are scrambled (paper §6.2.1 makes
    # "33% and 66% of these tenants" -- the randomly selected ones --
    # unpredictable; T1..T12 keep their identities).
    candidate_ids = sorted(
        s.tenant_id
        for s in specs
        if isinstance(s.arrivals, OpenLoopProcess) and s.tenant_id.startswith("R")
    )
    rng = make_rng(config.seed, "unpredictable-selection")
    count = int(round(unpredictable_fraction * len(candidate_ids)))
    chosen = list(rng.choice(candidate_ids, size=count, replace=False))
    return scramble_trace(trace, chosen, seed=config.seed)


def run_unpredictable(
    unpredictable_fraction: float,
    num_random: int = 300,
    include_fixed: bool = False,
    config: Optional[ExperimentConfig] = None,
    open_loop_utilization: float = 1.2,
    speed: float = 1.0,
    named_mode: str = "backlogged",
    jobs: Optional[int] = None,
    cache=None,
) -> ComparisonResult:
    """Run one unpredictability level of the §6.2.1 experiment.

    T1..T12 (and the probes, when included) default to continuously
    backlogged yardsticks: their service then reflects scheduling
    quality under sustained competition, which is the regime where the
    paper's Figure 11/12 effects appear.
    """
    if config is None:
        config = unpredictable_config()
    specs = production_specs(
        num_random=num_random,
        include_fixed=include_fixed,
        seed=config.seed,
        named_mode=named_mode,
    )
    trace = _scrambled_trace(
        specs, config, unpredictable_fraction, open_loop_utilization, speed
    )
    return run_comparison(
        specs, config, trace=trace, speed=speed, jobs=jobs, cache=cache
    )


@dataclass
class UnpredictableSweep:
    """Results across unpredictability levels (paper: 0%, 33%, 66%)."""

    fractions: List[float]
    results: List[ComparisonResult] = field(default_factory=list)


def run_unpredictable_sweep(
    fractions: Sequence[float] = (0.0, 0.33, 0.66),
    num_random: int = 300,
    include_fixed: bool = False,
    config: Optional[ExperimentConfig] = None,
    open_loop_utilization: float = 1.2,
    speed: float = 1.0,
    named_mode: str = "backlogged",
    jobs: Optional[int] = None,
    cache=None,
) -> UnpredictableSweep:
    """The full Figure 11/12 sweep over unpredictability levels."""
    sweep = UnpredictableSweep(fractions=list(fractions))
    for fraction in fractions:
        sweep.results.append(
            run_unpredictable(
                fraction,
                num_random=num_random,
                include_fixed=include_fixed,
                config=config,
                open_loop_utilization=open_loop_utilization,
                speed=speed,
                named_mode=named_mode,
                jobs=jobs,
                cache=cache,
            )
        )
    return sweep
