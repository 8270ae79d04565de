"""Command-line figure regeneration: ``python -m repro.figures <fig> ...``.

Runs the same experiments as the benchmark suite (at the same CI scale)
and prints the regenerated series, without requiring pytest.  Useful for
quick interactive exploration::

    python -m repro.figures list
    python -m repro.figures fig01 fig06
    python -m repro.figures fig08 --duration 10

``--jobs N`` fans the independent scheduler runs behind each figure out
over ``N`` worker processes, and ``--cache DIR`` reuses previously
computed runs from a content-addressed on-disk cache (DESIGN.md §10) --
regenerating an already-computed figure then costs deserialization, not
simulation.  Output is bit-identical to a serial, uncached run::

    python -m repro.figures fig08 fig09 --jobs 4 --cache runcache/

``--trace DIR`` additionally records run telemetry (DESIGN.md §9): for
every scheduler run behind the requested figures, ``DIR/<run>/`` gets a
JSONL decision-event stream, a Chrome-trace JSON of the thread
occupancy (open in ``chrome://tracing`` or https://ui.perfetto.dev),
and a ``manifest.json`` with the seed, config, and package provenance::

    python -m repro.figures fig06 --trace traces/

``--audit DIR`` is ``--trace`` plus the fairness audit (DESIGN.md
§14): every experiment run is also audited at export -- service lag vs
GPS, bursty-allocation detection, estimator drift, folded from the
run's trace rows and samples -- exporting ``audit_report.json`` per
run.  Every traced run also gets ``flight_recorder.json`` when a fault
or invariant violation fired::

    python -m repro.figures fig08 --duration 1 --audit audit-run/

``--faults PLAN.json`` injects a :mod:`repro.faults` fault plan into
every simulated run behind the requested figures, and ``--validate``
wraps every run's scheduler in the :mod:`repro.validate` invariant
watchdog (DESIGN.md §11).  ``figfault`` is the dedicated
fairness-under-degradation figure (canned plan unless ``--faults``
overrides it)::

    python -m repro.figures figfault --validate
    python -m repro.figures fig08 --faults chaos.json

``figfleet`` runs a routed multi-server fleet (:mod:`repro.fleet`)
instead of one server: cluster fairness under a mid-run server crash,
healthy vs unprotected vs crash-failover, plus a sharding-policy
ablation.  ``--servers N`` and ``--router POLICY`` shape the fleet; a
``--faults`` plan with ``server_crashes`` overrides the canned crash::

    python -m repro.figures figfleet --servers 4 --router tenant-hash

Figure ids match the paper's evaluation figures; see DESIGN.md for the
index and EXPERIMENTS.md for expected shapes.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from typing import Callable, Dict

from .errors import ConfigurationError
from .experiments.config import ExperimentConfig
from .faults.plan import FaultPlan
from .obs.audit import AuditConfig
from .obs.session import trace_session
from .parallel import RunCache, execution_context


from .experiments.degradation import (
    degradation_config,
    run_degradation,
)
from .experiments.fleet import PROBE_TENANT, run_figfleet
from .fleet import router_names
from .experiments.expensive_requests import (
    SMALL_PROBE,
    expensive_requests_config,
    occupancy_expensive_fraction,
    run_expensive_requests,
    sigma_vs_expensive,
)
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
from .experiments.unpredictable import run_unpredictable_sweep, unpredictable_config

__all__ = ["main", "FIGURES"]


def _flagged(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """Apply the ``--faults`` / ``--validate`` flags to a figure config.

    With no flag set the config object is returned unchanged, so
    default invocations execute exactly the pre-flag configurations
    (the differential CLI tests pin this).
    """
    plan = getattr(args, "fault_plan_obj", None)
    validate = bool(getattr(args, "validate", False))
    if plan is None and not validate:
        return config
    return dataclasses.replace(config, fault_plan=plan, validate=validate)


def fig01(args: argparse.Namespace) -> str:
    lines = []
    for name in ("wfq", "2dfq"):
        slots = worked_example(name, horizon=60.0, large_cost=10.0)
        mean_gap, max_gap = gap_statistics(slots, "A")
        lines.append(f"--- {name} ---")
        lines.extend(render_schedule(slots, horizon=40.0))
        lines.append(f"A gaps: mean={mean_gap:.2f}s max={max_gap:.2f}s\n")
    return "\n".join(lines)


def fig05(args: argparse.Namespace) -> str:
    lines = []
    for name in ("wfq", "wf2q"):
        lines.append(f"--- {name} ---")
        lines.extend(render_schedule(worked_example(name)))
        lines.append("")
    return "\n".join(lines)


def fig06(args: argparse.Namespace) -> str:
    return "\n".join(render_schedule(worked_example("2dfq")))


def fig08(args: argparse.Namespace) -> str:
    config = _flagged(expensive_requests_config(duration=args.duration), args)
    result = run_expensive_requests(num_expensive=50, config=config)
    fair = result.fair_rate()
    text = "small tenant service rate:\n"
    for name, run in result.runs.items():
        series = run.service_series(SMALL_PROBE)
        text += f"  {name:>5} {sparkline(series.service_rate().tolist())}\n"
    rows = [
        (name, run.lag_sigma(SMALL_PROBE, reference_rate=fair))
        for name, run in result.runs.items()
    ]
    text += "\n" + format_table(["scheduler", "sigma(lag) [s]"], rows)
    text += "\n\nexpensive-time fraction per thread:\n"
    for name, run in result.runs.items():
        frac = occupancy_expensive_fraction(run, config.num_threads)
        text += f"  {name:>5} " + " ".join(f"{f:.2f}" for f in frac) + "\n"
    sweep = sigma_vs_expensive(
        expensive_counts=(0, 25, 50, 75, 95),
        config=_flagged(
            expensive_requests_config(duration=min(args.duration, 3.0)), args
        ),
    )
    text += "\nsigma(lag) vs expensive tenants:\n"
    text += format_table(["n"] + list(sweep.sigmas), sweep.rows())
    return text


def fig09(args: argparse.Namespace) -> str:
    config = _flagged(production_config(duration=args.duration), args)
    result = run_production(
        num_random=80, include_fixed=True, config=config,
        named_mode="backlogged", open_loop_utilization=0.5,
    )
    fair = result.fair_rate()
    rows = []
    for name, run in result.runs.items():
        series = run.service_series("T1")
        rows.append(
            (name, series.lag_sigma(fair), float(run.gini_values.mean()))
        )
    text = format_table(["scheduler", "sigma(T1 lag) [s]", "mean Gini"], rows)
    text += "\n\nsigma(lag) CDF quartiles:\n"
    cdfs = lag_sigma_cdfs(result)
    text += format_table(
        ["scheduler", "q25", "q50", "q75"],
        [
            (n, c.quantile(0.25), c.quantile(0.5), c.quantile(0.75))
            for n, c in cdfs.items()
        ],
    )
    text += "\n\nfixed-cost probe lag ranges [s]:\n"
    ranges = fixed_cost_lag_ranges(result)
    probe_rows = []
    for tenant in sorted(next(iter(ranges.values()))):
        row = [tenant]
        for name in result.scheduler_names:
            p1, p99 = ranges[name][tenant]
            row.append(f"[{p1:+.3f},{p99:+.3f}]")
        probe_rows.append(tuple(row))
    text += format_table(["tenant"] + result.scheduler_names, probe_rows)
    return text


def fig11(args: argparse.Namespace) -> str:
    config = _flagged(unpredictable_config(duration=args.duration), args)
    sweep = run_unpredictable_sweep(
        fractions=(0.0, 0.33, 0.66), num_random=150, config=config,
        open_loop_utilization=1.3,
    )
    names = sweep.results[0].scheduler_names
    rows = []
    for fraction, result in zip(sweep.fractions, sweep.results):
        fair = result.fair_rate()
        rows.append(
            tuple(
                [f"{fraction:.0%}"]
                + [
                    result[n].service_series("T1").lag_sigma(fair)
                    for n in names
                ]
            )
        )
    return "sigma(T1 lag) [s]:\n" + format_table(["unpredictable"] + names, rows)


def figfault(args: argparse.Namespace) -> str:
    config = _flagged(degradation_config(duration=args.duration), args)
    result = run_degradation(config=config)
    text = "fairness while workers degrade mid-run "
    text += "(slowdown + stall + crash/restart):\n"
    text += format_table(
        [
            "scheduler",
            "sigma(lag) healthy",
            "sigma(lag) faulted",
            "Gini healthy",
            "Gini faulted",
        ],
        result.rows(),
    )
    plan = result.plan
    text += (
        f"\n\nfault plan: {len(plan.slowdowns)} slowdown(s), "
        f"{len(plan.crashes)} crash(es), {len(plan.deadlines)} deadline "
        f"policy(ies), {len(plan.estimator_faults)} estimator window(s)"
    )
    return text


def figfleet(args: argparse.Namespace) -> str:
    plan = getattr(args, "fault_plan_obj", None)
    result = run_figfleet(
        num_servers=args.servers,
        router=args.router,
        duration=args.duration,
        plan=plan,
        validate=bool(getattr(args, "validate", False)),
    )
    text = (
        f"cluster fairness under a mid-run server crash "
        f"({args.servers} servers, router={args.router}):\n"
    )
    text += format_table(
        [
            "mode",
            "worst survivor |lag| [s]",
            f"sigma({PROBE_TENANT} lag) [s]",
            "completed",
            "failover retries",
            "abandoned",
        ],
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


FIGURES: Dict[str, Callable[[argparse.Namespace], str]] = {
    "fig01": fig01,
    "fig05": fig05,
    "fig06": fig06,
    "fig08": fig08,
    "fig09": fig09,
    "fig11": fig11,
    "figfault": figfault,
    "figfleet": figfleet,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.figures",
        description="Regenerate figures from the 2DFQ paper's evaluation.",
    )
    parser.add_argument(
        "figures", nargs="+",
        help=f"figure ids ({', '.join(sorted(FIGURES))}) or 'list'",
    )
    parser.add_argument(
        "--duration", type=float, default=6.0,
        help="simulated seconds per run (default 6; paper scale is 15)",
    )
    parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="write per-run telemetry (events.jsonl, chrome_trace.json, "
        "manifest.json, and flight_recorder.json when a fault or "
        "invariant fired) under DIR; requires --jobs 1",
    )
    parser.add_argument(
        "--audit", metavar="DIR", default=None,
        help="like --trace, plus the fairness audit per run "
        "(audit_report.json); requires --jobs 1",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the independent runs behind each "
        "figure (default 1 = serial; output is identical for any N)",
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
        help="fleet size for figfleet (default 4)",
    )
    parser.add_argument(
        "--router", default="round-robin", choices=router_names(),
        help="fleet routing policy for figfleet's mode comparison "
        "(default round-robin, the health-oblivious baseline; the "
        "ablation table always sweeps every policy)",
    )
    args = parser.parse_args(argv)
    try:
        args.fault_plan_obj = FaultPlan.load(args.faults) if args.faults else None
    except ConfigurationError as exc:
        parser.error(str(exc))
    if args.figures == ["list"]:
        for fig in sorted(FIGURES):
            print(fig)
        return 0
    for fig in args.figures:
        if fig not in FIGURES:
            parser.error(f"unknown figure {fig!r}; try 'list'")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.trace and args.audit:
        parser.error(
            "--audit already implies --trace; pass exactly one of the two"
        )
    trace_dir = args.audit or args.trace
    if trace_dir and args.jobs > 1:
        parser.error(
            "--trace/--audit require --jobs 1: tracing is process-global "
            "and pool workers run with tracing disabled (DESIGN.md §10)"
        )
    cache = RunCache(args.cache) if args.cache else None
    context = (
        trace_session(trace_dir, audit=AuditConfig() if args.audit else None)
        if trace_dir
        else contextlib.nullcontext()
    )
    with context as session:
        with execution_context(jobs=args.jobs, cache=cache):
            for fig in args.figures:
                print(f"\n===== {fig} =====")
                print(FIGURES[fig](args))
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
