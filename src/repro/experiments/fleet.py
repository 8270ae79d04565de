"""The ``figfleet`` experiment: cluster fairness under a server crash.

Single-server figures ask "does the scheduler keep tenants at their
fair share?".  This experiment asks the fleet-level version: **does a
mid-run server crash destroy surviving tenants' cluster-wide fair
share, and does crash failover restore it?**  Three runs over the
identical workload and crash plan:

``healthy``
    No faults; the cluster-GPS lag baseline for this workload/router.
``crash``
    One server dies mid-run with ``failover=None``: no health monitor,
    so the router keeps feeding the corpse and every request placed
    there is stranded forever.  Open-loop tenants keep arriving into
    the GPS reference, so their cluster lag grows without bound --
    the measurable degradation the acceptance criterion demands.
``failover``
    Same crash, with the full robustness tier: detection after the
    probe window, exact-refund drain, re-route with bounded retries.
    Surviving tenants' lag must stay bounded (within a small factor of
    healthy).

The workload mixes closed-loop probes (small fixed-cost requests -- the
fairness probes), closed-loop expensive tenants (the 2DFQ stressor),
and open-loop Poisson tenants (arrivals continue after the crash, which
is what turns lost capacity into unbounded lag).  A router ablation
runs the same crash+failover scenario under every registered policy.

The mode comparison defaults to the ``round-robin`` router: it is the
classic cost- and health-oblivious load-balancer baseline, so the
crash-vs-failover contrast is pure robustness tier.  ``least-backlog``
partially self-heals even without a health monitor (the dead server's
backlog only grows, so join-shortest-queue stops feeding it new work --
though its stranded in-flight requests are still never recovered),
which the ablation table makes visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.registry import make_scheduler
from ..core.request import restart_seqnos
from ..faults.plan import FaultPlan, ServerCrash
from ..fleet import (
    FailoverPolicy,
    Fleet,
    FleetCollector,
    FleetInjector,
    router_names,
)
from ..metrics.collector import RunMetrics
from ..obs.session import RunTelemetry
from ..obs.tracer import Tracer
from ..simulator.clock import Simulation
from ..simulator.server import ThreadPoolServer
from ..validate import FleetConservationLedger, ValidatingScheduler, env_validate
from ..workloads.arrivals import PoissonArrivals
from ..workloads.build import attach_specs
from ..workloads.distributions import FixedCost, LogNormalCost
from ..workloads.spec import TenantSpec

__all__ = [
    "PROBE_TENANT",
    "fleet_population",
    "fleet_crash_plan",
    "max_abs_lag",
    "run_fleet",
    "run_figfleet",
    "FleetRunResult",
    "FigFleetResult",
]

#: The small fixed-cost closed-loop tenant whose cluster lag the
#: figure headlines (mirrors SMALL_PROBE in the Figure 8 experiment).
PROBE_TENANT = "P1"


def fleet_population(
    num_probes: int = 4,
    num_expensive: int = 2,
    num_open_loop: int = 6,
    capacity: float = 8000.0,
    open_loop_utilization: float = 0.3,
    probe_cost: float = 5.0,
    expensive_cost: float = 250.0,
) -> List[TenantSpec]:
    """The mixed fleet workload (see module docstring).

    ``capacity`` is the *fleet-wide* cost-units/second the open-loop
    utilization is planned against.
    """
    specs: List[TenantSpec] = []
    for i in range(num_probes):
        specs.append(
            TenantSpec(
                tenant_id=f"P{i + 1}",
                api_costs={"probe": FixedCost(probe_cost)},
            )
        )
    for i in range(num_expensive):
        specs.append(
            TenantSpec(
                tenant_id=f"E{i + 1}",
                api_costs={"heavy": FixedCost(expensive_cost)},
            )
        )
    if num_open_loop:
        per_tenant_units = capacity * open_loop_utilization / num_open_loop
        open_costs = LogNormalCost(median=10.0, sigma_decades=0.2, high=100.0)
        mean_cost = open_costs.mean()
        for i in range(num_open_loop):
            specs.append(
                TenantSpec(
                    tenant_id=f"O{i + 1}",
                    api_costs={"open": open_costs},
                    arrivals=PoissonArrivals(rate=per_tenant_units / mean_cost),
                )
            )
    return specs


def fleet_crash_plan(
    duration: float, server: int = 1, seed: int = 0
) -> FaultPlan:
    """The canned figfleet fault: one server dies at 35% of the run and
    never comes back."""
    return FaultPlan(
        server_crashes=(ServerCrash(server=server, at=0.35 * duration),),
        seed=seed,
    )


def max_abs_lag(metrics: RunMetrics, tenant_id: str) -> float:
    """Worst absolute service lag (cost units) of one tenant over the
    run -- the boundedness criterion of the crash-failover acceptance
    test."""
    lag = metrics.service_series(tenant_id).lag_units()
    if lag.size == 0:
        return 0.0
    return float(max(abs(float(lag.min())), abs(float(lag.max()))))


@dataclass
class FleetRunResult:
    """One fleet run: metrics plus the fault/conservation bookkeeping."""

    metrics: RunMetrics
    counts: Dict[str, int]
    injector_counts: Dict[str, int] = field(default_factory=dict)
    ledger: Optional[FleetConservationLedger] = None


def run_fleet(
    scheduler: str = "2dfq",
    num_servers: int = 4,
    num_threads: int = 4,
    thread_rate: float = 1000.0,
    duration: float = 8.0,
    router: str = "least-backlog",
    specs: Optional[Sequence[TenantSpec]] = None,
    plan: Optional[FaultPlan] = None,
    failover: Optional[FailoverPolicy] = FailoverPolicy(),
    health_interval: float = 0.05,
    failure_threshold: int = 1,
    sample_interval: float = 0.1,
    warmup: float = 0.0,
    seed: int = 0,
    validate: bool = False,
    tracer: Optional[Tracer] = None,
    initial_estimate: float = 1000.0,
    name: str = "fleet",
) -> FleetRunResult:
    """Run one fleet scenario end to end and freeze its metrics.

    Per-server schedulers are independent instances of ``scheduler``;
    ``validate`` (or ``REPRO_VALIDATE=1``) wraps each in the invariant
    watchdog *and* audits cross-server conservation with a
    :class:`~repro.validate.FleetConservationLedger`.

    Observability is the single-server runner's
    :class:`~repro.obs.session.RunTelemetry`: inside an active trace
    session (the figures CLI's ``--trace``) the run gets a session
    tracer labelled ``name``, a flight recorder riding the tracer sink
    (fleet crash/failover events are FAULT-kind triggers, so every
    detection and drain leaves a dump), and its artifacts are exported
    when the run ends -- also when the watchdog or the ledger's
    ``verify()`` raises, with an ``aborted`` manifest block.  Requests
    are numbered from seqno 0 in every run.
    """
    validate = validate or env_validate()
    restart_seqnos()
    sim = Simulation()
    servers = []
    # initial_estimate only applies to estimated (-e) variants, the same
    # convention as ExperimentConfig.kwargs_for.
    kwargs = (
        {"initial_estimate": initial_estimate}
        if scheduler.endswith("-e")
        else {}
    )
    for _ in range(num_servers):
        sched = make_scheduler(scheduler, num_threads=num_threads, **kwargs)
        if validate:
            sched = ValidatingScheduler(sched)
        servers.append(
            ThreadPoolServer(sim, sched, num_threads, rate=thread_rate)
        )
    fleet = Fleet(
        sim,
        servers,
        router=router,
        failover=failover,
        health_interval=health_interval,
        failure_threshold=failure_threshold,
        seed=seed,
    )
    telemetry = RunTelemetry(name, tracer)
    tracer = telemetry.tracer
    if tracer is not None:
        fleet.attach_tracer(tracer)
        for server in servers:
            server.attach_tracer(tracer)
            server.scheduler.attach_tracer(tracer)
    collector = FleetCollector(
        fleet, sample_interval=sample_interval, warmup=warmup
    )
    ledger = FleetConservationLedger(fleet) if validate else None
    injector = None
    if plan is not None and not plan.is_empty:
        injector = FleetInjector(fleet, plan)
        injector.install()
    if specs is None:
        specs = fleet_population(
            capacity=num_servers * num_threads * thread_rate
        )
    attach_specs(fleet, specs, seed=seed, duration=duration)

    def manifest() -> Dict[str, Any]:
        extra: Dict[str, Any] = {"fleet": dict(fleet.counts)}
        if injector is not None:
            extra["faults"] = dict(injector.counts)
        if ledger is not None:
            extra["validation"] = {"violations": list(ledger.errors)}
        return {
            "seed": seed,
            "config": {
                "name": name,
                "scheduler": scheduler,
                "num_servers": num_servers,
                "num_threads": num_threads,
                "thread_rate": thread_rate,
                "duration": duration,
                "router": router,
                "failover": failover is not None,
                "health_interval": health_interval,
                "failure_threshold": failure_threshold,
            },
            "extra": extra,
        }

    with telemetry.exporting_aborts(manifest):
        sim.run(until=duration)
        if ledger is not None:
            ledger.verify()
    telemetry.export(manifest)
    return FleetRunResult(
        metrics=collector.result(),
        counts=dict(fleet.counts),
        injector_counts=dict(injector.counts) if injector is not None else {},
        ledger=ledger,
    )


@dataclass
class FigFleetResult:
    """The three figfleet modes plus the router ablation."""

    runs: Dict[str, FleetRunResult]
    ablation: Dict[str, FleetRunResult]
    plan: FaultPlan
    fair_rate: float
    survivors: Tuple[str, ...]

    def worst_survivor_lag(self, mode: str) -> float:
        """Worst max-|lag| (seconds of fair-share service) over the
        surviving tenants in one mode."""
        return self._worst_lag(self.runs[mode])

    def _worst_lag(self, run: FleetRunResult) -> float:
        return max(
            max_abs_lag(run.metrics, tenant) / self.fair_rate
            for tenant in self.survivors
        )

    def rows(self) -> List[tuple]:
        out = []
        for mode, run in self.runs.items():
            out.append(
                (
                    mode,
                    self.worst_survivor_lag(mode),
                    run.metrics.lag_sigma(PROBE_TENANT, self.fair_rate),
                    run.counts.get("completed", 0),
                    run.counts.get("failover_retries", 0),
                    run.counts.get("abandoned", 0),
                )
            )
        return out

    def ablation_rows(self) -> List[tuple]:
        out = []
        for name, run in self.ablation.items():
            out.append(
                (
                    name,
                    self._worst_lag(run),
                    run.counts.get("completed", 0),
                    run.counts.get("rejected", 0),
                )
            )
        return out


def run_figfleet(
    scheduler: str = "2dfq",
    num_servers: int = 4,
    num_threads: int = 4,
    thread_rate: float = 1000.0,
    duration: float = 8.0,
    router: str = "round-robin",
    plan: Optional[FaultPlan] = None,
    seed: int = 0,
    validate: bool = False,
    tracer: Optional[Tracer] = None,
) -> FigFleetResult:
    """Run the healthy / crash / crash+failover comparison plus the
    sharding-policy ablation (every registered router, crash+failover).
    """
    if num_servers < 2:
        raise ValueError("figfleet needs at least 2 servers to crash one")
    if plan is None:
        plan = fleet_crash_plan(duration)
    specs = fleet_population(
        capacity=num_servers * num_threads * thread_rate
    )
    common = dict(
        scheduler=scheduler,
        num_servers=num_servers,
        num_threads=num_threads,
        thread_rate=thread_rate,
        duration=duration,
        specs=specs,
        seed=seed,
        validate=validate,
    )
    runs = {
        "healthy": run_fleet(
            router=router,
            plan=None,
            tracer=tracer,
            name="figfleet--healthy",
            **common,
        ),
        "crash": run_fleet(
            router=router,
            plan=plan,
            failover=None,
            name="figfleet--crash",
            **common,
        ),
        "failover": run_fleet(
            router=router,
            plan=plan,
            tracer=tracer,
            name="figfleet--failover",
            **common,
        ),
    }
    ablation = {
        name: run_fleet(
            router=name,
            plan=plan,
            name=f"figfleet-ablation--{name}",
            **common,
        )
        for name in router_names()
    }
    # Fair-share rate of one tenant against the *full* fleet (the
    # healthy-run reference): capacity / population weight.
    total_weight = float(sum(spec.weight for spec in specs))
    fair_rate = num_servers * num_threads * thread_rate / total_weight
    # Every tenant survives the crash (servers die, tenants do not), so
    # the lag bound is checked over the whole population -- open-loop
    # tenants included, since stranded arrivals are where an unprotected
    # crash turns into unbounded cluster lag.
    survivors = tuple(spec.tenant_id for spec in specs)
    return FigFleetResult(
        runs=runs,
        ablation=ablation,
        plan=plan,
        fair_rate=fair_rate,
        survivors=survivors,
    )
