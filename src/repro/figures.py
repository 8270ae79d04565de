"""The paper's figures, each defined once: ``python -m repro.figures <id>``.

:data:`FIGURES` holds one :class:`Figure` per figure of the paper's
evaluation (fig01-fig06, fig08-fig14) plus ``figfault`` (fairness while
workers degrade) and ``figfleet`` (a routed fleet under a server crash).
An entry holds its banner title, its committed scale (the horizon,
tenant counts and sweep points of ``benchmarks/results/<id>.txt``;
EXPERIMENTS.md lists the reductions from paper scale), a ``run`` that
returns the figure's data and a ``render`` that turns the data into
text.  The CLI prints an entry exactly as its committed file holds it;
the figure's benchmark asserts the paper's shape on the same data and
rewrites that file::

    python -m repro.figures list
    python -m repro.figures fig01 fig06
    python -m repro.figures fig08 --duration 10

``--duration`` overrides the entry's committed horizon (fig01-fig06
have none).  ``--cache DIR`` loads already-computed runs from a
content-addressed cache (DESIGN.md §10; output is bit-identical).
``--trace DIR`` writes each run's events, Chrome trace and manifest,
and ``--audit DIR`` adds the fairness audit (DESIGN.md §9, §14); both
recompute every run, so they reject ``--cache``.  ``--faults PLAN.json``
injects a :mod:`repro.faults` plan and ``--validate`` wraps every
scheduler in the invariant watchdog (DESIGN.md §11); only figures built
from an ``ExperimentConfig`` (fig08-fig12, fig14, figfault, figfleet)
take them.  ``--servers N`` and ``--router POLICY`` shape figfleet's
fleet::

    python -m repro.figures fig08 fig09 --cache runcache/
    python -m repro.figures fig08 --duration 1 --audit audit-run/
    python -m repro.figures figfault --faults chaos.json --validate
    python -m repro.figures figfleet --servers 4 --router tenant-hash
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from .errors import ConfigurationError
from .experiments.config import ExperimentConfig
from .experiments.degradation import degradation_config, run_degradation
from .experiments.expensive_requests import (
    expensive_requests_config,
    occupancy_expensive_fraction,
    run_expensive_requests,
    sigma_vs_expensive,
    small_tenant_series,
)
from .experiments.fleet import PROBE_TENANT, run_figfleet
from .experiments.intuition import run_intuition_sweep
from .experiments.production import (
    fixed_cost_lag_ranges,
    lag_sigma_cdfs,
    production_config,
    run_production,
)
from .experiments.report import format_table, sparkline
from .experiments.schedule_examples import (
    gap_statistics,
    render_schedule,
    worked_example,
)
from .experiments.suite import SuiteParameters, run_suite
from .experiments.unpredictable import run_unpredictable_sweep, unpredictable_config
from .faults.plan import FaultPlan
from .fleet import router_names
from .metrics.latency import percentiles
from .metrics.summary import cost_summary
from .obs.audit import AuditConfig
from .obs.session import current_session, trace_session
from .parallel import RunCache
from .simulator.rng import make_rng
from .workloads.azure import (
    API_NAMES,
    NAMED_TENANT_IDS,
    api_population_distribution,
    named_tenant,
    random_tenants,
)
from .workloads.synthetic import FIXED_COST_IDS
from .workloads.trace import generate_trace

__all__ = ["main", "FIGURES", "Figure", "Options", "framed"]


@dataclass(frozen=True)
class Options:
    """The CLI's run flags.  The defaults run a figure as committed."""

    #: Simulated seconds per run; ``None`` keeps the entry's horizon.
    duration: Optional[float] = None
    faults: Optional[FaultPlan] = None
    validate: bool = False
    cache: Optional[RunCache] = None
    servers: int = 4
    router: str = "round-robin"

    def config(self, config: ExperimentConfig) -> ExperimentConfig:
        """``config`` with ``--faults``/``--validate`` applied.  With
        neither set it is returned unchanged, so default invocations run
        exactly the unflagged configurations."""
        if self.faults is None and not self.validate:
            return config
        return dataclasses.replace(
            config, fault_plan=self.faults, validate=self.validate
        )


def framed(title: str, body: str) -> str:
    """``body`` under a ruled ``title`` banner, as the committed result
    files hold it."""
    rule = "=" * 72
    return f"\n{rule}\n{title}\n{rule}\n{body}\n"


@dataclass(frozen=True)
class Figure:
    """One figure: its banner title, committed scale, run and render."""

    #: Banner text; its id (``fig08``) is the part before the colon.
    title: str
    #: The committed scale.  A ``"duration"`` key is the horizon that
    #: ``--duration`` overrides; figures without one ignore the flag.
    scale: Mapping[str, Any]
    compute: Callable[[Mapping[str, Any], Options], Any]
    render: Callable[[Any], str]
    #: Builds an ``ExperimentConfig``, so takes ``--faults``/``--validate``.
    configurable: bool = False

    @property
    def id(self) -> str:
        return self.title.partition(":")[0]

    def run(self, options: Options = Options()) -> Any:
        """The figure's data at its committed scale, or at
        ``options.duration`` when given."""
        scale = dict(self.scale)
        if options.duration is not None and "duration" in scale:
            scale["duration"] = options.duration
        return self.compute(scale, options)

    def text(self, data: Any) -> str:
        """The figure as ``benchmarks/results/<id>.txt`` holds it."""
        return framed(self.title, self.render(data))


def _thread_means(means) -> str:
    return " ".join("." if np.isnan(m) else f"{m:.1f}" for m in means)


# -- Figures 1, 5, 6: the worked schedules ----------------------------------


def _fig01_run(scale, options):
    return {
        name: worked_example(name, horizon=60.0, large_cost=10.0)
        for name in ("wfq", "2dfq")
    }


def _fig01_render(schedules) -> str:
    lines = []
    for name, slots in schedules.items():
        mean_gap, max_gap = gap_statistics(slots, "A")
        kind = "bursty" if max_gap >= 10.0 else "smooth"
        lines += [f"--- {name} ({kind}) ---", *render_schedule(slots, horizon=40.0),
                  f"tenant A inter-start gaps: mean={mean_gap:.2f}s max={max_gap:.2f}s",
                  ""]
    return "\n".join(lines)


def _fig05_run(scale, options):
    return {name: worked_example(name) for name in ("wfq", "wf2q")}


def _fig05_render(schedules) -> str:
    lines = []
    for name, slots in schedules.items():
        lines += [f"--- {name} ---", *render_schedule(slots), ""]
    return "\n".join(lines)


def _fig06_render(slots) -> str:
    _, max_gap = gap_statistics(slots, "A")
    lines = render_schedule(slots)
    lines.append(f"tenant A max inter-start gap: {max_gap:.2f}s (smooth)")
    return "\n".join(lines)


# -- Figures 2-4: the workload model -----------------------------------------


def _fig02_run(scale, options):
    rng = make_rng(2, "fig2")
    api_rows = []
    all_samples = []
    for api in API_NAMES:
        distribution = api_population_distribution(api)
        samples = distribution.sample_many(rng, scale["api_samples"])
        all_samples.append(samples)
        s = cost_summary(samples)
        api_rows.append((api, s.p1, s.p50, s.p99, s.decades_of_spread()))
    tenant_rows = []
    for tenant_id in NAMED_TENANT_IDS:
        samples = named_tenant(tenant_id).sample_costs(
            rng, scale["tenant_samples"]
        )[2]
        s = cost_summary(samples)
        tenant_rows.append((tenant_id, s.p1, s.p50, s.p99, s.cov))
    low, high = percentiles(np.concatenate(all_samples), (0.1, 99.9))
    return api_rows, tenant_rows, float(np.log10(high / low))


def _fig02_render(data) -> str:
    api_rows, tenant_rows, spread = data
    text = "Figure 2a -- per-API cost distributions:\n"
    text += format_table(["API", "p1", "p50", "p99", "decades(p99/p1)"], api_rows)
    text += "\n\nFigure 2b -- per-tenant cost distributions:\n"
    text += format_table(["tenant", "p1", "p50", "p99", "CoV"], tenant_rows)
    text += f"\n\naggregate spread p0.1..p99.9: {spread:.2f} decades (paper: ~4)"
    return text


def _fig03_run(scale, options):
    rng = make_rng(3, "fig3")
    points = []  # (api, mean, cov)
    for spec in random_tenants(scale["tenants"], seed=3):
        for api, dist in spec.api_costs.items():
            samples = dist.sample_many(rng, scale["samples_per_pair"])
            mean = float(samples.mean())
            cov = float(samples.std() / mean)
            points.append((api, mean, cov))
    return points


def _fig03_render(points) -> str:
    rows = []
    for api in sorted({p[0] for p in points}):
        covs = np.array([cov for a, _, cov in points if a == api])
        means = np.array([m for a, m, _ in points if a == api])
        rows.append((api, len(covs), f"{means.min():.3g}..{means.max():.3g}",
                     float((covs < 0.5).mean()), float((covs > 1.0).mean())))
    text = "Per-API scatter summary (Figure 3 right):\n"
    text += format_table(
        ["API", "tenants", "mean-cost range", "frac CoV<0.5", "frac CoV>1"],
        rows,
    )
    all_covs = np.array([cov for _, _, cov in points])
    text += (
        f"\n\npopulation: {(all_covs < 0.5).mean():.0%} predictable pairs,"
        f" {(all_covs > 1.0).mean():.0%} unpredictable pairs"
    )
    return text


_FIG04_TENANTS = ("T2", "T3", "T10")


def _fig04_run(scale, options):
    """The trace of T2, T3 and T10, and each one's requests per second."""
    seconds = scale["trace_seconds"]
    trace = generate_trace(
        [named_tenant(t) for t in _FIG04_TENANTS], duration=seconds, seed=4
    )
    edges = np.arange(0.0, seconds + 1.0, 1.0)
    rates = {
        tenant: np.histogram(
            np.array([r.time for r in trace if r.tenant == tenant]), bins=edges
        )[0]
        for tenant in _FIG04_TENANTS
    }
    return trace, rates


def _fig04_render(data) -> str:
    trace, rates_by_tenant = data
    lines = []
    for tenant, rates in rates_by_tenant.items():
        costs = np.array([r.cost for r in trace if r.tenant == tenant])
        apis = sorted({r.api for r in trace if r.tenant == tenant})
        low, high = percentiles(costs, (0.5, 99.5))
        lines.append(
            f"{tenant}: {len(costs)} requests, APIs {','.join(apis)}, "
            f"cost spread {np.log10(high / low):.1f} decades"
        )
        lines.append(f"  rate/s  {sparkline(rates.tolist())}")
        lines.append(
            f"  rate min/mean/max = {rates.min()}/{rates.mean():.0f}/{rates.max()}"
        )
    return "\n".join(lines)


# -- Figure 8: known costs, synthetic ----------------------------------------


def _fig08_run(scale, options):
    """The n=50 comparison, and the sigma sweep at ``min(duration, 3)``."""
    half = run_expensive_requests(
        num_expensive=scale["expensive"],
        total_tenants=scale["tenants"],
        config=options.config(expensive_requests_config(duration=scale["duration"])),
        cache=options.cache,
    )
    sweep = sigma_vs_expensive(
        expensive_counts=scale["sweep"],
        total_tenants=scale["tenants"],
        config=options.config(
            expensive_requests_config(duration=min(scale["duration"], 3.0))
        ),
        cache=options.cache,
    )
    return half, sweep


def _fig08_render(data) -> str:
    half, sweep = data
    series = small_tenant_series(half)
    text = "Figure 8a -- small tenant service rate (100ms bins) at n=50:\n"
    for name in half.scheduler_names:
        text += f"  {name:>5} {sparkline(series[name]['service_rate'].tolist())}\n"
    text += "\nFigure 8a -- service lag (s):\n"
    rows_a = []
    for name in half.scheduler_names:
        lag = series[name]["lag_seconds"]
        rows_a.append((name, float(lag.min()), float(lag.max()),
                       float(np.std(lag))))
    text += format_table(["scheduler", "lag min", "lag max", "sigma(lag)"], rows_a)
    text += "\n\nFigure 8b -- fraction of busy time on expensive requests per thread:\n"
    for name in half.scheduler_names:
        frac = occupancy_expensive_fraction(half[name], half.config.num_threads)
        text += f"  {name:>5} " + " ".join(f"{f:.2f}" for f in frac) + "\n"
    text += "\nFigure 8c -- sigma(service lag) [s] vs expensive tenants:\n"
    text += format_table(["n expensive"] + list(sweep.sigmas), sweep.rows())
    return text


# -- Figures 9, 10: known costs, production-like -----------------------------


@functools.lru_cache(maxsize=1)
def _production(duration, num_random, options, session):
    """The production run Figs 9 and 10 share: requested for both in one
    process, it runs once.  ``session`` (the active trace session) is
    only part of the key, so a traced run records its own simulations.

    The fixed-cost probes t1..t7 and T1..T12 run as continuously
    backlogged yardsticks (their service-lag role in the paper's
    figures).  Half the capacity is replayed load; the yardsticks soak
    the rest, keeping the server saturated with genuinely competing
    tenants -- the contended known-cost regime of §6.1.2.
    """
    return run_production(
        num_random=num_random,
        include_fixed=True,
        config=options.config(production_config(duration=duration)),
        named_mode="backlogged",
        open_loop_utilization=0.5,
        cache=options.cache,
    )


def _production_run(scale, options):
    return _production(
        scale["duration"], scale["random_tenants"], options, current_session()
    )


def _fig09_run(scale, options):
    """The production run, and per scheduler T1's lag (seconds) and the
    mean Gini index."""
    result = _production_run(scale, options)
    fair = result.fair_rate()
    rows = []
    for name, run in result.runs.items():
        lag = run.service_series("T1").lag_seconds(fair)
        rows.append((name, float(np.std(lag)), float(lag.min()),
                     float(lag.max()), float(run.gini_values.mean())))
    return result, rows


def _fig09_render(data) -> str:
    result, rows = data
    text = "Figure 9a -- T1 service rate (100ms bins):\n"
    for name, run in result.runs.items():
        series = run.service_series("T1")
        text += f"  {name:>5} {sparkline(series.service_rate().tolist())}\n"
    text += "\nFigure 9a -- T1 service lag (s) and Gini index:\n"
    text += format_table(
        ["scheduler", "sigma(lag)", "lag min", "lag max", "mean Gini"], rows
    )
    text += "\n\nFigure 9b -- mean log10(request cost) per thread:\n"
    for name, run in result.runs.items():
        means = run.thread_cost_partition(result.config.num_threads)
        text += f"  {name:>5} {_thread_means(means)}\n"
    return text


def _fig10_run(scale, options):
    """Per scheduler, the CDF of per-tenant sigma(lag) and the fixed-cost
    probes' lag (p1, p99) ranges."""
    result = _production_run(scale, options)
    return result.scheduler_names, lag_sigma_cdfs(result), fixed_cost_lag_ranges(result)


def _fig10_render(data) -> str:
    names, cdfs, ranges = data
    rows = [
        (name, *(cdf.quantile(q) for q in (0.10, 0.25, 0.50, 0.75)))
        for name, cdf in cdfs.items()
    ]
    text = "Figure 10 (left) -- CDF of per-tenant sigma(service lag) [s]:\n"
    text += format_table(["scheduler", "q10", "q25", "q50", "q75"], rows)
    text += "\n\nFigure 10 (right) -- lag (p1, p99) of fixed-cost tenants t1..t7 [s]:\n"
    probe_rows = []
    for tenant in FIXED_COST_IDS:
        row = [tenant]
        for name in names:
            p1, p99 = ranges[name].get(tenant, (float("nan"), float("nan")))
            row.append(f"[{p1:+.3f}, {p99:+.3f}]")
        probe_rows.append(tuple(row))
    text += format_table(["tenant"] + names, probe_rows)
    return text


# -- Figures 11, 12: unknown costs --------------------------------------------


def _unpredictable_sweep(scale, options, include_fixed):
    return run_unpredictable_sweep(
        fractions=scale["fractions"],
        num_random=scale["random_tenants"],
        include_fixed=include_fixed,
        config=options.config(unpredictable_config(duration=scale["duration"])),
        open_loop_utilization=1.3,
        cache=options.cache,
    )


def _fig11_run(scale, options):
    """The sweep without the fixed-cost probes (whose constant 0.07-1 s
    requests dominate the pool at this reduced scale and mask the
    schedulers' treatment of the workload's own unpredictability), and
    T1's sigma(lag) per ``(fraction, scheduler)``."""
    sweep = _unpredictable_sweep(scale, options, include_fixed=False)
    sigmas = {}
    for fraction, result in zip(sweep.fractions, sweep.results):
        fair = result.fair_rate()
        for name, run in result.runs.items():
            sigmas[(fraction, name)] = run.service_series("T1").lag_sigma(fair)
    return sweep, sigmas


def _fig11_render(data) -> str:
    sweep, sigmas = data
    text = ""
    for fraction, result in zip(sweep.fractions, sweep.results):
        text += f"--- {fraction:.0%} unpredictable ---\n"
        text += "T1 service rate (100ms bins):\n"
        for name, run in result.runs.items():
            series = run.service_series("T1")
            text += f"  {name:>7} {sparkline(series.service_rate().tolist())}\n"
        text += "\n"
    names = sweep.results[0].scheduler_names
    rows = [
        tuple([f"{fraction:.0%}"] + [sigmas[(fraction, n)] for n in names])
        for fraction in sweep.fractions
    ]
    text += "sigma(T1 service lag) [s]:\n"
    text += format_table(["unpredictable"] + names, rows)
    text += "\n\nFigure 11b -- 2DFQ^E mean log10(cost) per thread:\n"
    for fraction, result in zip(sweep.fractions, sweep.results):
        means = result["2dfq-e"].thread_cost_partition(result.config.num_threads)
        text += f"  {fraction:.0%}: {_thread_means(means)}\n"
    return text


_FIG12_TENANTS = list(NAMED_TENANT_IDS) + list(FIXED_COST_IDS)


def _fig12_run(scale, options):
    """The sweep with the fixed-cost probes, and the p99 latency per
    ``(fraction, scheduler, tenant)``."""
    sweep = _unpredictable_sweep(scale, options, include_fixed=True)
    p99 = {
        (fraction, name, tenant): run.latency_p99(tenant)
        for fraction, result in zip(sweep.fractions, sweep.results)
        for name, run in result.runs.items()
        for tenant in _FIG12_TENANTS
    }
    return sweep, p99


def _fig12_render(data) -> str:
    sweep, p99 = data
    names = sweep.results[0].scheduler_names
    text = ""
    for fraction in sweep.fractions:
        text += f"--- {fraction:.0%} unpredictable: p99 latency [s] ---\n"
        rows = [
            tuple([tenant] + [p99[(fraction, name, tenant)] for name in names])
            for tenant in _FIG12_TENANTS
        ]
        text += format_table(["tenant"] + names, rows) + "\n\n"
    text += "sigma(service lag) CDF medians [s]:\n"
    rows = []
    for fraction, result in zip(sweep.fractions, sweep.results):
        fair = result.fair_rate()
        row = [f"{fraction:.0%}"]
        for name in names:
            sigmas = [
                v
                for v in result[name].lag_sigmas(reference_rate=fair).values()
                if not np.isnan(v)
            ]
            row.append(float(np.median(sigmas)))
        rows.append(tuple(row))
    text += format_table(["unpredictable"] + names, rows)
    return text


# -- Figure 13: the randomized suite ------------------------------------------


def _fig13_run(scale, options):
    return run_suite(SuiteParameters(**scale), cache=options.cache)


def _signed(ratio: float) -> float:
    return ratio if ratio >= 1.0 else -1.0 / ratio


def _fig13_render(result) -> str:
    text = "Experiments:\n"
    for e in result.experiments:
        text += (
            f"  #{e.index}: threads={e.num_threads} replay={e.num_replay} "
            f"speed={e.replay_speed:.2f} backlogged={e.num_backlogged} "
            f"expensive={e.num_expensive} unpredictable={e.num_unpredictable}\n"
        )
    rows = []
    for baseline in ("wfq-e", "wf2q-e"):
        ratios = result.ratios(baseline)
        for tenant in NAMED_TENANT_IDS:
            values = ratios[tenant]
            if not values:
                continue
            rows.append(
                (
                    baseline,
                    tenant,
                    len(values),
                    _signed(float(np.min(values))),
                    _signed(float(np.median(values))),
                    _signed(float(np.max(values))),
                )
            )
    text += "\n2DFQ^E p99 speedup distribution per tenant:\n"
    text += format_table(
        ["baseline", "tenant", "n", "min", "median", "max"], rows
    )
    return text


# -- Figure 14: the intuition curve -------------------------------------------


def _fig14_run(scale, options):
    return run_intuition_sweep(
        fractions=scale["fractions"],
        num_random=scale["random_tenants"],
        config=options.config(unpredictable_config(duration=scale["duration"])),
        open_loop_utilization=1.3,
    )


def _fig14_render(curve) -> str:
    rows = [
        tuple([f"{fraction:.0%}"] + [curve.qos[n][i] for n in curve.qos])
        for i, fraction in enumerate(curve.fractions)
    ]
    text = "QoS (normalized 1/median sigma(lag) of T1..T4) vs unpredictability:\n"
    text += format_table(["unpredictable"] + list(curve.qos), rows)
    text += "\n"
    for name, series in curve.qos.items():
        text += f"\n  {name:>7} {sparkline(series)}"
    return text


# -- figfault, figfleet: fairness under faults --------------------------------


def _figfault_run(scale, options):
    config = options.config(degradation_config(duration=scale["duration"]))
    return run_degradation(config=config, cache=options.cache)


def _figfault_render(result) -> str:
    text = "fairness while workers degrade mid-run "
    text += "(slowdown + stall + crash/restart):\n"
    text += format_table(
        ["scheduler", "sigma(lag) healthy", "sigma(lag) faulted",
         "Gini healthy", "Gini faulted"],
        result.rows(),
    )
    plan = result.plan
    text += (
        f"\n\nfault plan: {len(plan.slowdowns)} slowdown(s), "
        f"{len(plan.crashes)} crash(es), {len(plan.deadlines)} deadline "
        f"policy(ies), {len(plan.estimator_faults)} estimator window(s)"
    )
    return text


def _figfleet_run(scale, options):
    result = run_figfleet(
        num_servers=options.servers,
        router=options.router,
        duration=scale["duration"],
        plan=options.faults,
        validate=options.validate,
    )
    return options.servers, options.router, result


def _figfleet_render(data) -> str:
    servers, router, result = data
    text = (
        f"cluster fairness under a mid-run server crash "
        f"({servers} servers, router={router}):\n"
    )
    text += format_table(
        ["mode", "worst survivor |lag| [s]", f"sigma({PROBE_TENANT} lag) [s]",
         "completed", "failover retries", "abandoned"],
        result.rows(),
    )
    text += "\n\nsharding-policy ablation (crash + failover):\n"
    text += format_table(
        ["router", "worst survivor |lag| [s]", "completed", "rejected"],
        result.ablation_rows(),
    )
    plan = result.plan
    text += (
        f"\n\nfault plan: {len(plan.server_crashes)} server crash(es), "
        f"{len(plan.server_slowdowns)} server slowdown(s), seed {plan.seed}"
    )
    return text


# -- The registry -------------------------------------------------------------

#: Figs 9 and 10 read one production run, so they share its scale.
_PRODUCTION_SCALE = {"duration": 6.0, "random_tenants": 80}
_UNPREDICTABLE_FRACTIONS = (0.0, 0.33, 0.66)

FIGURES: Dict[str, Figure] = {
    figure.id: figure
    for figure in (
        Figure("fig01: bursty vs smooth schedule", {}, _fig01_run, _fig01_render),
        Figure("fig02: cost distributions",
               {"api_samples": 6000, "tenant_samples": 2000},
               _fig02_run, _fig02_render),
        Figure("fig03: mean vs CoV per (tenant, API)",
               {"tenants": 80, "samples_per_pair": 400},
               _fig03_run, _fig03_render),
        Figure("fig04: tenant time series (T2, T3, T10)",
               {"trace_seconds": 30.0}, _fig04_run, _fig04_render),
        Figure("fig05: WFQ and WF2Q worked example", {},
               _fig05_run, _fig05_render),
        Figure("fig06: 2DFQ worked example", {},
               lambda scale, options: worked_example("2dfq"), _fig06_render),
        Figure("fig08: expensive tenants (known costs)",
               {"duration": 6.0, "tenants": 100, "expensive": 50,
                "sweep": (0, 25, 50, 75, 95)},
               _fig08_run, _fig08_render, configurable=True),
        Figure("fig09: production workload, known costs", _PRODUCTION_SCALE,
               _fig09_run, _fig09_render, configurable=True),
        Figure("fig10: service-lag variation CDFs", _PRODUCTION_SCALE,
               _fig10_run, _fig10_render, configurable=True),
        Figure("fig11: unpredictable workloads (unknown costs)",
               {"duration": 8.0, "random_tenants": 150,
                "fractions": _UNPREDICTABLE_FRACTIONS},
               _fig11_run, _fig11_render, configurable=True),
        Figure("fig12: latency distributions (unknown costs)",
               {"duration": 8.0, "random_tenants": 120,
                "fractions": _UNPREDICTABLE_FRACTIONS},
               _fig12_run, _fig12_render, configurable=True),
        Figure("fig13: randomized suite p99 speedups",
               {"duration": 4.0, "num_experiments": 10, "threads": (4, 16),
                "replay_tenants": (10, 80), "replay_speed": (0.5, 2.0),
                "backlogged_tenants": (0, 8), "expensive_tenants": (0, 8),
                "unpredictable_tenants": (0, 60), "thread_rate": 1.0e6,
                "open_loop_utilization": 1.2, "seed": 13},
               _fig13_run, _fig13_render),
        Figure("fig14: QoS vs unpredictability intuition curve",
               {"duration": 5.0, "random_tenants": 80,
                "fractions": (0.0, 0.5, 1.0)},
               _fig14_run, _fig14_render, configurable=True),
        Figure("figfault: fairness under worker degradation",
               {"duration": 6.0}, _figfault_run, _figfault_render,
               configurable=True),
        Figure("figfleet: cluster fairness under a server crash",
               {"duration": 6.0}, _figfleet_run, _figfleet_render,
               configurable=True),
    )
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.figures",
        description="Regenerate figures from the 2DFQ paper's evaluation.",
    )
    parser.add_argument(
        "figures", nargs="+",
        help=f"figure ids ({', '.join(FIGURES)}) or 'list'",
    )
    parser.add_argument(
        "--duration", type=float, default=None,
        help="simulated seconds per run (default: each figure's committed "
        "scale; paper scale is 15)",
    )
    parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="write per-run telemetry (events.jsonl, chrome_trace.json, "
        "manifest.json, and flight_recorder.json when a fault or "
        "invariant fired) under DIR; every run is recomputed, so not "
        "with --cache",
    )
    parser.add_argument(
        "--audit", metavar="DIR", default=None,
        help="like --trace, plus the fairness audit per run "
        "(audit_report.json); not with --cache",
    )
    parser.add_argument(
        "--cache", metavar="DIR", default=None,
        help="content-addressed run cache directory; already-computed "
        "runs are loaded instead of re-simulated",
    )
    parser.add_argument(
        "--faults", metavar="PLAN.json", default=None,
        help="inject the fault plan into every simulated run behind the "
        "requested figures (see repro.faults; figfault uses a canned "
        "plan when this is omitted)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="wrap every run's scheduler in the invariant watchdog "
        "(repro.validate); violations raise with full event context",
    )
    parser.add_argument(
        "--servers", type=int, default=4, metavar="N",
        help="fleet size for figfleet (default 4, at least 2)",
    )
    parser.add_argument(
        "--router", default="round-robin", choices=router_names(),
        help="fleet routing policy for figfleet's mode comparison "
        "(default round-robin, the health-oblivious baseline; the "
        "ablation table always sweeps every policy)",
    )
    args = parser.parse_args(argv)
    try:
        plan = FaultPlan.load(args.faults) if args.faults else None
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.figures == ["list"]:
        for fig in FIGURES:
            print(fig)
        return 0
    for fig in args.figures:
        if fig not in FIGURES:
            parser.error(f"unknown figure {fig!r}; try 'list'")
        if (args.faults or args.validate) and not FIGURES[fig].configurable:
            parser.error(
                f"{fig} runs no experiment config, so it cannot take "
                "--faults or --validate"
            )
    if args.duration is not None and not 0 < args.duration < math.inf:
        parser.error(f"--duration must be finite and > 0, got {args.duration}")
    if args.servers < 2:
        parser.error(
            f"--servers must be >= 2 (figfleet crashes one), got {args.servers}"
        )
    if args.trace and args.audit:
        parser.error("--audit already implies --trace; pass exactly one of the two")
    trace_dir = args.audit or args.trace
    if trace_dir and args.cache:
        parser.error(
            "--trace/--audit cannot be combined with --cache: a cached run "
            "is not re-simulated, so it has no events to trace (DESIGN.md §10)"
        )
    for flag in ("cache", "trace", "audit"):
        directory = getattr(args, flag)
        if not directory:
            continue
        try:
            Path(directory).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            parser.error(f"--{flag} {directory}: {exc.strerror}")
    cache = RunCache(args.cache) if args.cache else None
    options = Options(duration=args.duration, faults=plan, validate=args.validate,
                      cache=cache, servers=args.servers, router=args.router)
    context = (
        trace_session(trace_dir, audit=AuditConfig() if args.audit else None)
        if trace_dir
        else contextlib.nullcontext()
    )
    with context as session:
        for figure in (FIGURES[fig] for fig in args.figures):
            sys.stdout.write(figure.text(figure.run(options)))
    if trace_dir:
        print(f"\ntrace artifacts: {len(session.runs)} run(s) under {trace_dir}")
    if cache is not None:
        print(
            f"\nrun cache: {cache.hits} hit(s), {cache.misses} miss(es), "
            f"{cache.stores} stored under {cache.directory}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
