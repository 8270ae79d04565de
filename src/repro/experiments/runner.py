"""Run workloads against schedulers and collect metrics.

The runner realizes the paper's methodology: generate the workload once
(seeded), then run the byte-identical arrival sequence through each
scheduler, measuring service lag against a GPS reference, latencies,
Gini index, and the dispatch log.

When a :mod:`repro.obs` trace session is active (the figures CLI's
``--trace`` flag, or :func:`repro.obs.trace_session` directly), every
run additionally emits its decision-event stream, a Chrome trace of the
thread occupancy, and a ``manifest.json`` provenance record -- the
run-telemetry contract of DESIGN.md §9.  An explicit ``tracer`` can be
passed instead for programmatic use (the caller then owns the export).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from ..parallel.cache import RunCache

from ..core.registry import make_scheduler
from ..core.request import restart_seqnos
from ..core.scheduler import Scheduler
from ..faults.injector import FaultInjector
from ..metrics.collector import MetricsCollector, RunMetrics
from ..obs.session import RunTelemetry
from ..obs.tracer import Tracer
from ..validate import ValidatingScheduler, env_validate
from ..simulator.clock import Simulation
from ..simulator.server import ThreadPoolServer
from ..workloads.arrivals import OpenLoopProcess
from ..workloads.build import attach_specs
from ..workloads.spec import TenantSpec
from ..workloads.trace import TraceRecord, generate_trace
from .config import ExperimentConfig

__all__ = ["run_single", "run_comparison", "ComparisonResult"]


def _scheduler_manifest(scheduler: Scheduler) -> Dict[str, Any]:
    """Scheduler parameters for the run manifest (JSON-ready)."""
    info: Dict[str, Any] = {
        "name": scheduler.name,
        "class": type(scheduler).__name__,
        "num_threads": scheduler.num_threads,
        "thread_rate": scheduler.thread_rate,
    }
    estimator = getattr(scheduler, "estimator", None)
    if estimator is not None:
        info["estimator"] = repr(estimator)
    index = getattr(scheduler, "selection_index", None)
    if index is not None:
        info["selection_index"] = index.stats()
    return info


def run_single(
    scheduler_name: str,
    specs: Sequence[TenantSpec],
    config: ExperimentConfig,
    trace: Optional[Sequence[TraceRecord]] = None,
    speed: float = 1.0,
    tracer: Optional[Tracer] = None,
) -> RunMetrics:
    """Run one scheduler over the workload and return its metrics.

    With ``config.validate`` (or ``REPRO_VALIDATE=1``) the scheduler is
    wrapped in the :class:`~repro.validate.ValidatingScheduler` invariant
    watchdog; with a non-empty ``config.fault_plan`` a
    :class:`~repro.faults.injector.FaultInjector` schedules the plan's
    faults into the run.  Both are strictly additive: left off, the run
    executes exactly the unfaulted, unwatched code paths.

    Observability: an explicit ``tracer`` is attached to every
    instrumented component and its caller owns the export; inside an
    active trace session the run gets a session tracer and is exported,
    flight-recorder dumps included, even when a strict-mode watchdog
    raise aborts it.  The collector's samples go to the tracer too: an
    *audited session* (the CLI's ``--audit``) audits the run at export,
    and an explicit tracer's caller can fold a
    :class:`~repro.obs.audit.FairnessAuditor` over them after the run.

    Requests are numbered from seqno 0 in every run.
    """
    restart_seqnos()
    sim = Simulation()
    inner_scheduler = make_scheduler(
        scheduler_name,
        num_threads=config.num_threads,
        thread_rate=config.thread_rate,
        **config.kwargs_for(scheduler_name),
    )
    scheduler: Scheduler = inner_scheduler
    watchdog: Optional[ValidatingScheduler] = None
    if config.validate or env_validate():
        watchdog = ValidatingScheduler(inner_scheduler)
        scheduler = watchdog  # type: ignore[assignment] -- transparent proxy
    server = ThreadPoolServer(
        sim,
        scheduler,
        num_threads=config.num_threads,
        rate=config.thread_rate,
        refresh_interval=config.refresh_interval,
    )
    injector: Optional[FaultInjector] = None
    if config.fault_plan is not None and not config.fault_plan.is_empty:
        injector = FaultInjector(server, config.fault_plan)
        injector.install()
        injector.wire_estimator(scheduler)
    collector = MetricsCollector(
        server,
        sample_interval=config.sample_interval,
        record_dispatches=config.record_dispatches,
        warmup=config.warmup,
    )
    telemetry = RunTelemetry(f"{config.name}--{scheduler_name}", tracer)
    tracer = telemetry.tracer
    if tracer is not None:
        scheduler.attach_tracer(tracer)
        estimator = getattr(scheduler, "estimator", None)
        if estimator is not None:
            estimator.attach_tracer(tracer)
        server.attach_tracer(tracer)
        collector.attach_tracer(tracer)
    attach_specs(
        server,
        specs,
        seed=config.seed,
        duration=config.duration,
        speed=speed,
        trace=trace,
    )

    def manifest() -> Dict[str, Any]:
        extra: Dict[str, Any] = {}
        if injector is not None:
            extra["faults"] = injector.counts
        if watchdog is not None:
            extra["validation"] = watchdog.summary()
        return {
            "seed": config.seed,
            "config": dataclasses.asdict(config),
            "scheduler": _scheduler_manifest(inner_scheduler),
            "extra": extra,
        }

    with telemetry.exporting_aborts(manifest):
        sim.run(until=config.duration)
    metrics = collector.result()
    telemetry.export(manifest)
    return metrics


class ComparisonResult:
    """Metrics of every scheduler over the same workload."""

    def __init__(
        self,
        config: ExperimentConfig,
        runs: Dict[str, RunMetrics],
        specs: Sequence[TenantSpec],
    ) -> None:
        self.config = config
        self.runs = runs
        self.specs = list(specs)

    def __getitem__(self, scheduler_name: str) -> RunMetrics:
        return self.runs[scheduler_name]

    @property
    def scheduler_names(self) -> List[str]:
        return list(self.runs)

    def fair_rate(self, population: Optional[int] = None) -> float:
        """Nominal per-tenant fair-share rate (cost units/second) used to
        express service lag in seconds: aggregate capacity divided by the
        steady tenant population."""
        count = population if population is not None else max(1, len(self.specs))
        return self.config.capacity / count


def run_comparison(
    specs: Sequence[TenantSpec],
    config: ExperimentConfig,
    trace: Optional[Sequence[TraceRecord]] = None,
    speed: float = 1.0,
    jobs: int = 1,
    cache: Optional["RunCache"] = None,
) -> ComparisonResult:
    """Run every configured scheduler over the identical workload.

    Open-loop specs are materialized into a single trace up front so all
    schedulers see the same arrivals; closed-loop (backlogged) specs are
    re-seeded identically per run, so their cost sequences match too.

    Each scheduler run is one independent :class:`~repro.parallel.RunSpec`
    cell handed to :func:`repro.parallel.run_cells`: with ``jobs > 1``
    the runs fan out over pool workers (results merge in scheduler
    order, bit-identical to serial), and with a
    :class:`~repro.parallel.RunCache` repeated invocations deserialize
    instead of re-simulating.  The defaults are serial and uncached.
    """
    from ..parallel.engine import run_cells
    from ..parallel.spec import RunSpec

    open_loop = [s for s in specs if isinstance(s.arrivals, OpenLoopProcess)]
    if trace is None and open_loop:
        trace = generate_trace(open_loop, config.duration * speed, seed=config.seed)
    cells = [
        RunSpec(
            scheduler=name,
            specs=tuple(specs),
            config=config,
            trace=tuple(trace) if trace is not None else None,
            speed=speed,
        )
        for name in config.schedulers
    ]
    metrics = run_cells(cells, jobs=jobs, cache=cache)
    runs: Dict[str, RunMetrics] = dict(zip(config.schedulers, metrics))
    return ComparisonResult(config, runs, specs)
