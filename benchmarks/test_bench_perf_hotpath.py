"""Scheduler hot-path microbenchmarks (``benchmarks/hotpath.py``).

Not a paper figure: these locate costs inside the scheduler core, while
``benchmarks/e2e`` measures the speed of figure runs.  The bench records
five sections of ``benchmarks/results/BENCH_manifest.json`` alongside
the provenance record (seed, versions, git SHA):

* ``adaptive_selection`` -- the linear-vs-index crossover sweep behind
  the ``AUTO_INDEX_HIGH``/``AUTO_INDEX_LOW`` thresholds, for the paper's
  scheduler and WF2Q (one eligibility slot), keyed by name on 4 threads
  and ``name@threads`` on 16 and 64 (the thresholds ignore the thread
  count; those rows are recorded, not gated);
* ``observability`` -- traced and audited dequeue throughput relative to
  the disabled default, and under ``export`` the seconds per 10k rows of
  ``write_rows_jsonl`` and ``write_chrome_trace`` over an unbounded
  audited tracer's rows (both recorded, not gated: wallclock variance);
* ``metrics_sample`` -- microseconds per periodic metrics sample over the
  first and last 10% of a 1,500-sample run, at 8 tenants x 4 threads
  (``quickstart``'s shape) and 262 tenants x 32 threads
  (``production``'s), and their ratio ``growth`` (recorded, not gated:
  wallclock variance; about 1.0 on a 2-core x86-64 VM, where the sampler
  that copied a zero prefix of every tenant's history per sample
  measured 2.2-2.5).  ``result_us`` is the ``result()`` time per sample:
  the Gini fold moved there from the sample.
  ``tests/test_metrics_sampling.py`` gates "no per-sample growth"
  deterministically, with ``tracemalloc``;
* ``event_loop`` -- events per second through ``Simulation.run`` for 64
  self-rescheduling timers, without and with 10% cancel churn (recorded,
  not gated);
* ``server_backlog`` -- microseconds per completed request of a
  server-driven 2DFQ^E run on 64 threads with 200, 1000 and 3000
  closed-loop tenants, the regime the crossover sweep does not reach
  (recorded, not gated).

Acceptance bars: the thresholds form a hysteresis band, and at full
scale the 4-thread index wins somewhere inside the sweep, within the 2x
band the activation threshold was chosen from.

Scale down for smoke runs with ``REPRO_BENCH_OPS`` (dispatches per
timing cell, default 500-3000 depending on N, and events per event-loop
cell, default 200,000); committed full-scale
runs use ``REPRO_BENCH_REPEATS=5``::

    PYTHONPATH=src REPRO_BENCH_REPEATS=5 python -m pytest \\
        benchmarks/test_bench_perf_hotpath.py -q
"""

import os
import platform

from repro.obs import write_manifest

from conftest import BENCH_MANIFEST, emit, once, read_bench_manifest
from hotpath import (
    EVENT_LOOP_CHURN,
    EVENT_LOOP_TIMERS,
    METRICS_SAMPLE_SHAPES,
    METRICS_SAMPLES,
    SERVER_BACKLOG_TENANTS,
    measure_adaptive_crossover,
    measure_event_loop,
    measure_export,
    measure_metrics_sample,
    measure_observability_overhead,
    measure_server_backlog,
)

#: Pool sizes of the crossover sweep; only the first is gated.
CROSSOVER_THREADS = (4, 16, 64)

#: Manifest sections owned by *other* bench modules, carried over when
#: this module rewrites the manifest (write_manifest replaces the file
#: wholesale).
PRESERVED_SECTIONS = ("fleet", "parallel_engine")


def _crossover_sweeps(ops, repeats):
    """Crossover sweeps of 2DFQ and WF2Q on every pool size, keyed by
    name on the gated 4-thread pool and ``name@threads`` elsewhere."""
    sweeps = {}
    for threads in CROSSOVER_THREADS:
        for name in ("2dfq", "wf2q"):
            key = name if threads == CROSSOVER_THREADS[0] else f"{name}@{threads}"
            sweeps[key] = measure_adaptive_crossover(
                name, num_threads=threads, ops=ops, repeats=repeats
            )
    return sweeps


def _format_crossover(sweep):
    lines = [f"{'tenants':>7} {'linear rps':>12} {'indexed rps':>12} {'ratio':>7}"]
    for row in sweep["rows"]:
        lines.append(
            f"{row['tenants']:>7} {row['linear_rps']:>12.1f} "
            f"{row['indexed_rps']:>12.1f} {row['ratio']:>6.3f}x"
        )
    return "\n".join(lines)


def _format_observability(section):
    lines = [f"{'mode':<10} {'rps':>12} {'relative':>9}"]
    for mode in ("disabled", "traced", "audited"):
        row = section["modes"][mode]
        lines.append(f"{mode:<10} {row['rps']:>12.1f} {row['relative']:>8.3f}x")
    export = section["export"]
    lines.append(
        f"export of {export['rows']} audited rows, s per 10k rows: "
        f"events.jsonl {export['jsonl_s_per_10k']:.4f}, "
        f"chrome_trace.json {export['chrome_s_per_10k']:.4f}"
    )
    return "\n".join(lines)


def _format_metrics_sample(rows):
    lines = [
        f"{'tenants':>7} {'threads':>7} {'first us':>9} {'last us':>9} "
        f"{'growth':>7} {'result us':>10}"
    ]
    for row in rows:
        lines.append(
            f"{row['tenants']:>7} {row['threads']:>7} {row['first_us']:>9.1f} "
            f"{row['last_us']:>9.1f} {row['growth']:>6.3f}x {row['result_us']:>10.2f}"
        )
    return "\n".join(lines)


def _format_event_loop(rows):
    lines = [f"{'churn':>6} {'events':>8} {'events/s':>11}"]
    for row in rows:
        lines.append(
            f"{row['churn']:>6.2f} {row['events']:>8} {row['events_per_s']:>11.1f}"
        )
    return "\n".join(lines)


def _format_server_backlog(rows):
    lines = [f"{'tenants':>7} {'threads':>7} {'completed':>9} {'us/request':>10}"]
    for row in rows:
        lines.append(
            f"{row['tenants']:>7} {row['threads']:>7} {row['completed']:>9} "
            f"{row['us_per_request']:>10.2f}"
        )
    return "\n".join(lines)


def test_bench_perf_hotpath(benchmark, capsys):
    ops = int(os.environ.get("REPRO_BENCH_OPS", "0")) or None
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "0")) or 2
    reduced = ops is not None
    crossover = once(benchmark, lambda: _crossover_sweeps(ops, repeats))
    observability = measure_observability_overhead(
        "2dfq", num_tenants=100, ops=ops, repeats=repeats
    )
    observability["export"] = measure_export(
        "2dfq", num_tenants=100, ops=ops, repeats=repeats
    )
    metrics_sample = [
        measure_metrics_sample(tenants, threads)
        for tenants, threads in METRICS_SAMPLE_SHAPES
    ]
    event_loop = [
        measure_event_loop(churn, events=ops, repeats=repeats)
        for churn in EVENT_LOOP_CHURN
    ]
    server_backlog = [
        measure_server_backlog(
            tenants, horizon=0.05 if reduced else 0.5, repeats=repeats
        )
        for tenants in SERVER_BACKLOG_TENANTS
    ]
    preserved = {
        key: value
        for key, value in read_bench_manifest().items()
        if key in PRESERVED_SECTIONS
    }
    write_manifest(
        BENCH_MANIFEST,
        name="scheduler-hotpath",
        seed=0,
        config={
            "machine": platform.machine(),
            "python": platform.python_version(),
            "num_threads": 4,
            "ops": ops,
            "repeats": repeats,
        },
        extra={
            "observability": observability,
            "adaptive_selection": crossover,
            "metrics_sample": metrics_sample,
            "event_loop": event_loop,
            "server_backlog": server_backlog,
            **preserved,
        },
    )
    emit(
        capsys,
        "BENCH: scheduler hot-path dequeue throughput",
        "\n\n".join(
            f"adaptive crossover ({sweep['scheduler']}, {sweep['threads']} threads, "
            f"auto_low={sweep['auto_low']}, auto_high={sweep['auto_high']}):\n"
            + _format_crossover(sweep)
            for sweep in crossover.values()
        )
        + "\n\nobservability layers (2dfq, 100 tenants):\n"
        + _format_observability(observability)
        + f"\n\nmetrics sample cost, first vs last 10% of {METRICS_SAMPLES} samples:\n"
        + _format_metrics_sample(metrics_sample)
        + f"\n\nevent loop, {EVENT_LOOP_TIMERS} self-rescheduling timers:\n"
        + _format_event_loop(event_loop)
        + "\n\nserver-driven 2DFQ^E, closed-loop tenants:\n"
        + _format_server_backlog(server_backlog),
    )
    for sweep in crossover.values():
        assert sweep["auto_high"] > sweep["auto_low"] > 0
        assert all(row["indexed_rps"] > 0 and row["linear_rps"] > 0 for row in sweep["rows"])
        if not reduced and sweep["threads"] == CROSSOVER_THREADS[0]:
            assert sweep["crossover_tenants"] is not None, sweep
            assert sweep["crossover_tenants"] <= 2 * sweep["auto_high"], sweep
    # Turning observability ON cannot plausibly be faster than 2x off.
    for mode, row in observability["modes"].items():
        assert row["rps"] > 0, f"observability mode {mode} measured no work"
        assert row["relative"] <= 2.0, f"implausible speedup in mode {mode}: {row}"
    export = observability["export"]
    assert export["jsonl_s_per_10k"] > 0 and export["chrome_s_per_10k"] > 0, export
    for row in metrics_sample:
        assert row["first_us"] > 0 and row["last_us"] > 0, row
    for row in event_loop:
        assert row["events_per_s"] > 0, row
    for row in server_backlog:
        assert row["completed"] > 0, row
