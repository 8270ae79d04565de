"""Figure 13: the randomized experiment suite with unknown costs.

Paper §6.2.2: "we run a suite of 150 experiments derived from production
workloads ... as we randomly vary several parameters: the number of
worker threads (2 to 64); the number of tenants to replay (0 to 400);
the replay speed (0.5-4x); the number of continuously backlogged tenants
(0 to 100); the number of artificially expensive tenants (0 to 100); and
the number of unpredictable tenants (0 to 100).  To compare between
experiments, we also include T1..T12."  For every experiment the 99th
percentile latency of each reference tenant is measured under WFQ^E,
WF2Q^E, and 2DFQ^E, and 2DFQ^E's speedup over each baseline computed.

The parameter ranges are configurable so CI-scale suites (fewer, shorter
experiments) keep the paper's *shape*: strong median speedups for small
predictable tenants (T1-like), little or negative speedup for expensive
or unpredictable ones (T10, T12, t7).  EXPERIMENTS.md records the scale
used for the committed results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:
    from ..parallel.cache import RunCache

from ..metrics.latency import speedup
from ..simulator.rng import make_rng
from ..workloads.arrivals import Backlogged
from ..workloads.azure import NAMED_TENANT_IDS, backlogged_variant, named_tenants, random_tenants
from ..workloads.distributions import NormalCost
from ..workloads.spec import TenantSpec
from .config import ExperimentConfig
from .unpredictable import _scrambled_trace

__all__ = [
    "SuiteParameters",
    "SuiteExperiment",
    "SuiteCell",
    "SuiteResult",
    "sample_experiment",
    "run_suite",
]

SUITE_SCHEDULERS: Tuple[str, ...] = ("wfq-e", "wf2q-e", "2dfq-e")


@dataclass(frozen=True)
class SuiteParameters:
    """Randomization ranges of the §6.2.2 suite (paper-scale defaults)."""

    num_experiments: int = 150
    threads: Tuple[int, int] = (2, 64)
    replay_tenants: Tuple[int, int] = (0, 400)
    replay_speed: Tuple[float, float] = (0.5, 4.0)
    backlogged_tenants: Tuple[int, int] = (0, 100)
    expensive_tenants: Tuple[int, int] = (0, 100)
    unpredictable_tenants: Tuple[int, int] = (0, 100)
    duration: float = 15.0
    thread_rate: float = 1.0e6
    open_loop_utilization: float = 0.5
    seed: int = 0


@dataclass(frozen=True)
class SuiteExperiment:
    """One sampled experiment of the suite."""

    index: int
    num_threads: int
    num_replay: int
    replay_speed: float
    num_backlogged: int
    num_expensive: int
    num_unpredictable: int


def sample_experiment(index: int, params: SuiteParameters) -> SuiteExperiment:
    """Sample the randomized knobs of experiment ``index`` (seeded)."""
    rng = make_rng(params.seed, "suite-experiment", str(index))
    lo, hi = params.threads
    num_threads = int(rng.integers(lo, hi + 1))
    num_replay = int(rng.integers(params.replay_tenants[0],
                                  params.replay_tenants[1] + 1))
    speed = float(rng.uniform(*params.replay_speed))
    num_backlogged = int(rng.integers(params.backlogged_tenants[0],
                                      params.backlogged_tenants[1] + 1))
    num_expensive = int(rng.integers(params.expensive_tenants[0],
                                     params.expensive_tenants[1] + 1))
    num_unpredictable = int(rng.integers(params.unpredictable_tenants[0],
                                         params.unpredictable_tenants[1] + 1))
    num_unpredictable = min(num_unpredictable, num_replay)
    return SuiteExperiment(
        index=index,
        num_threads=num_threads,
        num_replay=num_replay,
        replay_speed=speed,
        num_backlogged=num_backlogged,
        num_expensive=num_expensive,
        num_unpredictable=num_unpredictable,
    )


def _experiment_specs(
    experiment: SuiteExperiment, seed: int
) -> List[TenantSpec]:
    """Build the tenant population of one suite experiment."""
    specs: List[TenantSpec] = [
        backlogged_variant(spec, window=8) for spec in named_tenants(seed)
    ]
    # Extra continuously backlogged tenants reuse random Azure profiles.
    extra = random_tenants(
        experiment.num_backlogged, seed=seed + 1000 + experiment.index
    )
    specs += [backlogged_variant(spec, window=4) for spec in extra]
    # Artificially expensive tenants (paper: "the number of artificially
    # expensive tenants"): backlogged senders of large requests.
    for i in range(experiment.num_expensive):
        specs.append(
            TenantSpec(
                tenant_id=f"X{i}",
                api_costs={"huge": NormalCost(5.0e5, 5.0e4, floor=1.0)},
                arrivals=Backlogged(window=4),
            )
        )
    # Open-loop replay tenants.
    specs += random_tenants(
        experiment.num_replay, seed=seed + 2000 + experiment.index
    )
    return specs


@dataclass
class SuiteResult:
    """Per-tenant 99th-percentile latencies and speedups over the suite."""

    params: SuiteParameters
    experiments: List[SuiteExperiment] = field(default_factory=list)
    #: experiment index -> scheduler -> tenant -> p99 latency (seconds).
    p99: List[Dict[str, Dict[str, float]]] = field(default_factory=list)
    #: Quarantined-cell failure records (``CellFailure.as_dict()``);
    #: empty when every cell succeeded.
    errors: List[Dict[str, object]] = field(default_factory=list)

    def speedups(
        self, baseline: str, improved: str = "2dfq-e",
        tenants: Sequence[str] = NAMED_TENANT_IDS,
    ) -> Dict[str, List[float]]:
        """Figure 13 data: per tenant, the distribution across
        experiments of ``improved``'s p99 speedup over ``baseline``."""
        out: Dict[str, List[float]] = {t: [] for t in tenants}
        for record in self.p99:
            for tenant in tenants:
                base = record.get(baseline, {}).get(tenant, float("nan"))
                better = record.get(improved, {}).get(tenant, float("nan"))
                value = speedup(base, better)
                if not np.isnan(value):
                    out[tenant].append(value)
        return out

    def ratios(
        self, baseline: str, improved: str = "2dfq-e",
        tenants: Sequence[str] = NAMED_TENANT_IDS,
    ) -> Dict[str, List[float]]:
        """Raw p99 ratios ``baseline / improved`` per tenant (>1 means
        the improved scheduler is faster).  Use these for medians --
        aggregating the signed speedup convention directly can average
        across the sign discontinuity."""
        out: Dict[str, List[float]] = {t: [] for t in tenants}
        for record in self.p99:
            for tenant in tenants:
                base = record.get(baseline, {}).get(tenant, float("nan"))
                better = record.get(improved, {}).get(tenant, float("nan"))
                if base > 0 and better > 0 and not (
                    np.isnan(base) or np.isnan(better)
                ):
                    out[tenant].append(base / better)
        return out

    def median_speedup(
        self, baseline: str, tenant: str, improved: str = "2dfq-e"
    ) -> float:
        """Median p99 speedup in the paper's signed convention, computed
        on the raw ratios."""
        ratios = self.ratios(baseline, improved, [tenant])[tenant]
        if not ratios:
            return float("nan")
        median = float(np.median(ratios))
        return median if median >= 1.0 else -1.0 / median


def _suite_config(
    experiment: SuiteExperiment,
    params: SuiteParameters,
    schedulers: Sequence[str],
    initial_estimate: float,
) -> ExperimentConfig:
    """The shared per-experiment configuration of one suite cell."""
    return ExperimentConfig(
        name=f"suite-{experiment.index}",
        schedulers=tuple(schedulers),
        num_threads=experiment.num_threads,
        thread_rate=params.thread_rate,
        duration=params.duration,
        sample_interval=0.1,
        refresh_interval=0.01,
        seed=params.seed + experiment.index,
        initial_estimate=initial_estimate,
        record_dispatches=False,
    )


def _suite_trace(
    experiment: SuiteExperiment,
    params: SuiteParameters,
    specs: Sequence[TenantSpec],
    config: ExperimentConfig,
):
    """Materialize the (seeded, hence reproducible) cell trace."""
    fraction = (
        experiment.num_unpredictable / experiment.num_replay
        if experiment.num_replay
        else 0.0
    )
    return _scrambled_trace(
        specs,
        config,
        unpredictable_fraction=fraction,
        open_loop_utilization=params.open_loop_utilization,
        speed=experiment.replay_speed,
    )


@dataclass(frozen=True)
class SuiteCell:
    """One (experiment x scheduler) cell of the Figure 13 suite.

    The cell carries only the suite parameters and its coordinates --
    the tenant population and trace are regenerated *inside*
    :meth:`execute` from the same seeded streams the serial path uses,
    so a pool worker needs a few hundred bytes of pickle rather than
    the materialized trace, and the cache key stays small and stable.
    """

    index: int
    params: SuiteParameters
    scheduler: str
    tenants: Tuple[str, ...]
    initial_estimate: float

    def label(self) -> str:
        return f"suite-{self.index}--{self.scheduler}"

    def execute(self) -> Dict[str, float]:
        """Run the cell; returns tenant -> p99 latency (seconds)."""
        from .runner import run_single

        experiment = sample_experiment(self.index, self.params)
        config = _suite_config(
            experiment,
            self.params,
            (self.scheduler,),
            self.initial_estimate,
        )
        specs = _experiment_specs(experiment, config.seed)
        trace = _suite_trace(experiment, self.params, specs, config)
        metrics = run_single(
            self.scheduler,
            specs,
            config,
            trace=trace,
            speed=experiment.replay_speed,
        )
        return {t: metrics.latency_p99(t) for t in self.tenants}


def run_suite(
    params: Optional[SuiteParameters] = None,
    schedulers: Sequence[str] = SUITE_SCHEDULERS,
    tenants: Sequence[str] = NAMED_TENANT_IDS,
    initial_estimate: float = 1000.0,
    jobs: Optional[int] = None,
    cache: Optional["RunCache"] = None,
) -> SuiteResult:
    """Run the randomized suite and collect per-tenant p99 latencies.

    Pass a scaled-down :class:`SuiteParameters` for quick runs -- shape
    is preserved at far smaller scale than the paper's 150x15s.

    The suite is embarrassingly parallel: every (experiment, scheduler)
    pair is an independent :class:`SuiteCell` fanned out through
    :func:`repro.parallel.run_cells`.  Results merge by cell index, so
    ``jobs=N`` produces numerically identical :attr:`SuiteResult.p99`
    to ``jobs=1`` for any ``N``; with a cache, re-running the suite (or
    widening it) only executes cells whose keys are new.

    A crashing cell does not sink the suite: failures are quarantined
    (``on_error="quarantine"``), recorded in :attr:`SuiteResult.errors`,
    and their per-tenant latencies read as NaN downstream -- every other
    cell's results are returned.
    """
    from ..parallel.engine import CellFailure, run_cells

    if params is None:
        params = SuiteParameters()
    schedulers = tuple(schedulers)
    result = SuiteResult(params=params)
    cells = [
        SuiteCell(
            index=index,
            params=params,
            scheduler=name,
            tenants=tuple(tenants),
            initial_estimate=initial_estimate,
        )
        for index in range(params.num_experiments)
        for name in schedulers
    ]
    outputs = run_cells(cells, jobs=jobs, cache=cache, on_error="quarantine")
    per_cell = iter(outputs)
    for index in range(params.num_experiments):
        result.experiments.append(sample_experiment(index, params))
        record: Dict[str, Dict[str, float]] = {}
        for name in schedulers:
            output = next(per_cell)
            if isinstance(output, CellFailure):
                # Quarantined cell: its latencies read as NaN through
                # SuiteResult's .get(..., nan) accessors.
                result.errors.append(output.as_dict())
                output = {}
            record[name] = output
        result.p99.append(record)
    return result
