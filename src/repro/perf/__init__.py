"""Performance measurement helpers.

The ROADMAP's north star is a simulator that "runs as fast as the
hardware allows"; this package is where that claim is measured.  The
scheduler hot-path harness (:mod:`repro.perf.hotpath`) times
``dequeue`` throughput per scheduler, backlog size, and selection mode
(linear / forced index / adaptive auto), locates the linear-vs-index
crossover backing the adaptive thresholds, and measures the hot-path
cost of tracing and auditing; results persist to
``BENCH_schedulers.json`` so regressions are visible PR over PR.
End-to-end figure-cell timings live in ``benchmarks/e2e``.
"""

from .hotpath import (
    DEFAULT_SCHEDULERS,
    DEFAULT_TENANT_COUNTS,
    format_results,
    measure_adaptive_crossover,
    measure_dequeue_throughput,
    measure_observability_overhead,
    measure_paired_cell,
    quiesced_gc,
    run_hotpath_suite,
    write_results,
)

__all__ = [
    "DEFAULT_SCHEDULERS",
    "DEFAULT_TENANT_COUNTS",
    "format_results",
    "measure_adaptive_crossover",
    "measure_dequeue_throughput",
    "measure_observability_overhead",
    "measure_paired_cell",
    "quiesced_gc",
    "run_hotpath_suite",
    "write_results",
]
