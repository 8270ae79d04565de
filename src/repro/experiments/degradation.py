"""Fairness under faults: do the paper's guarantees survive degradation?

The evaluation figures all assume a healthy worker pool.  This
experiment re-runs the Figure 8 premise -- backlogged small tenants
sharing a pool with expensive tenants -- while the pool degrades
mid-run: one worker slows to a crawl, one stalls outright, and one
crashes (losing its in-flight request to re-dispatch) before coming
back.  Each scheduler sees the identical workload twice, healthy and
faulted, and the figure reports the small probe tenant's service-lag
sigma and the mean Gini index side by side.

The interesting comparison is *relative*: 2DFQ/2DFQ^E should hold their
order-of-magnitude lag advantage over WFQ/WF2Q while capacity comes and
goes -- the cancellation refunds and re-dispatch keep the virtual-time
accounting honest, so degraded capacity is shared as fairly as healthy
capacity.

CLI: ``python -m repro.figures figfault [--faults PLAN.json]``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..faults.plan import FaultPlan, WorkerCrash, WorkerSlowdown
from ..workloads.synthetic import expensive_requests_population
from .config import ExperimentConfig
from .expensive_requests import SMALL_PROBE
from .runner import ComparisonResult, run_comparison

__all__ = [
    "degradation_config",
    "degradation_plan",
    "run_degradation",
    "DegradationResult",
]

DEFAULT_SCHEDULERS: Tuple[str, ...] = ("wfq", "wf2q", "2dfq", "2dfq-e")


def degradation_config(
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    num_threads: int = 16,
    thread_rate: float = 1000.0,
    duration: float = 15.0,
    seed: int = 0,
) -> ExperimentConfig:
    """The fairness-under-faults configuration.

    Same pool shape as Figure 8, but refresh charging stays on (a
    stalled worker's request is exactly the long-running occupier
    refresh charging exists for) and the estimated 2DFQ^E variant runs
    alongside the known-cost schedulers.
    """
    return ExperimentConfig(
        name="figfault-degradation",
        schedulers=tuple(schedulers),
        num_threads=num_threads,
        thread_rate=thread_rate,
        duration=duration,
        sample_interval=0.1,
        refresh_interval=0.01,
        seed=seed,
        initial_estimate=1000.0,
    )


def degradation_plan(config: ExperimentConfig) -> FaultPlan:
    """The canned mid-run degradation, scaled to the config's duration:
    worker 0 runs at quarter speed through the middle half of the run,
    worker 1 stalls outright for the middle third, and worker 2 crashes
    at 40% (its in-flight request re-dispatched) and restarts at 70%.
    Workers beyond the pool size are skipped by the injector, so the
    same plan works for any pool of >= 1 workers.
    """
    d = config.duration
    return FaultPlan(
        slowdowns=(
            WorkerSlowdown(worker=0, start=0.25 * d, end=0.75 * d, factor=0.25),
            WorkerSlowdown(worker=1, start=0.30 * d, end=0.60 * d, factor=0.0),
        ),
        crashes=(WorkerCrash(worker=2, at=0.40 * d, restart_at=0.70 * d),),
        seed=config.seed,
    )


@dataclass
class DegradationResult:
    """Healthy and faulted runs of the identical workload, per scheduler."""

    healthy: ComparisonResult
    faulted: ComparisonResult
    plan: FaultPlan

    @property
    def scheduler_names(self) -> List[str]:
        return self.healthy.scheduler_names

    def rows(self, probe: str = SMALL_PROBE) -> List[tuple]:
        """Figure rows: per scheduler, the probe tenant's service-lag
        sigma and the mean Gini index, healthy vs faulted."""
        fair = self.healthy.fair_rate()
        out = []
        for name in self.scheduler_names:
            healthy = self.healthy[name]
            faulted = self.faulted[name]
            out.append(
                (
                    name,
                    healthy.lag_sigma(probe, reference_rate=fair),
                    faulted.lag_sigma(probe, reference_rate=fair),
                    float(healthy.gini_values.mean()),
                    float(faulted.gini_values.mean()),
                )
            )
        return out


def run_degradation(
    num_expensive: int = 50,
    total_tenants: int = 100,
    config: Optional[ExperimentConfig] = None,
    plan: Optional[FaultPlan] = None,
    cache=None,
) -> DegradationResult:
    """Run the fairness-under-faults comparison.

    Every scheduler sees the identical workload twice: once healthy
    (``fault_plan=None``) and once under ``plan`` (default: the canned
    :func:`degradation_plan`).  Each of the ``2 x len(schedulers)`` runs
    is an independent cell, so ``cache`` (a
    :class:`~repro.parallel.RunCache`, default none) memoizes them like
    any other figure's.
    """
    if config is None:
        config = degradation_config()
    if plan is None:
        plan = (
            config.fault_plan
            if config.fault_plan is not None and not config.fault_plan.is_empty
            else degradation_plan(config)
        )
    specs = expensive_requests_population(
        num_small=total_tenants - num_expensive, total=total_tenants
    )
    healthy_config = dataclasses.replace(
        config, name=f"{config.name}-healthy", fault_plan=None
    )
    faulted_config = dataclasses.replace(
        config, name=f"{config.name}-faulted", fault_plan=plan
    )
    healthy = run_comparison(specs, healthy_config, cache=cache)
    faulted = run_comparison(specs, faulted_config, cache=cache)
    return DegradationResult(healthy=healthy, faulted=faulted, plan=plan)
