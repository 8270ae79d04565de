"""Scheduler hot-path microbenchmarks (``benchmarks/hotpath.py``).

Not a paper figure: these locate costs inside the scheduler core, while
``benchmarks/e2e`` measures the speed of figure runs.  The bench records
two sections of ``benchmarks/results/BENCH_manifest.json`` alongside the
provenance record (seed, versions, git SHA):

* ``adaptive_selection`` -- the linear-vs-index crossover sweep behind
  the ``AUTO_INDEX_HIGH``/``AUTO_INDEX_LOW`` thresholds, for the paper's
  scheduler and the policy with the latest measured crossover;
* ``observability`` -- traced and audited dequeue throughput relative to
  the disabled default (recorded, not gated: wallclock variance).

Acceptance bars: the thresholds form a hysteresis band, and at full
scale the index wins somewhere inside the sweep, within the 2x band the
activation threshold was chosen from.

Scale down for smoke runs with ``REPRO_BENCH_OPS`` (dispatches per
timing cell, default 500-3000 depending on N); committed full-scale
runs use ``REPRO_BENCH_REPEATS=5``::

    PYTHONPATH=src REPRO_BENCH_REPEATS=5 python -m pytest \\
        benchmarks/test_bench_perf_hotpath.py -q
"""

import os
import platform

from repro.obs import write_manifest

from conftest import BENCH_MANIFEST, emit, once, read_bench_manifest
from hotpath import measure_adaptive_crossover, measure_observability_overhead

#: Manifest sections owned by *other* bench modules, carried over when
#: this module rewrites the manifest (write_manifest replaces the file
#: wholesale).
PRESERVED_SECTIONS = ("analysis", "fleet", "parallel_engine")


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
    return "\n".join(lines)


def test_bench_perf_hotpath(benchmark, capsys):
    ops = int(os.environ.get("REPRO_BENCH_OPS", "0")) or None
    repeats = int(os.environ.get("REPRO_BENCH_REPEATS", "0")) or 2
    reduced = ops is not None
    crossover = once(
        benchmark,
        lambda: {
            name: measure_adaptive_crossover(name, ops=ops, repeats=repeats)
            for name in ("2dfq", "wf2q+")
        },
    )
    observability = measure_observability_overhead(
        "2dfq", num_tenants=100, ops=ops, repeats=repeats
    )
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
            **preserved,
        },
    )
    emit(
        capsys,
        "BENCH: scheduler hot-path dequeue throughput",
        "\n\n".join(
            f"adaptive crossover ({name}, auto_low={sweep['auto_low']}, "
            f"auto_high={sweep['auto_high']}):\n" + _format_crossover(sweep)
            for name, sweep in crossover.items()
        )
        + "\n\nobservability layers (2dfq, 100 tenants):\n"
        + _format_observability(observability),
    )
    for name, sweep in crossover.items():
        assert sweep["auto_high"] > sweep["auto_low"] > 0
        assert all(row["indexed_rps"] > 0 and row["linear_rps"] > 0 for row in sweep["rows"])
        if not reduced:
            assert sweep["crossover_tenants"] is not None, sweep
            assert sweep["crossover_tenants"] <= 2 * sweep["auto_high"], sweep
    # Turning observability ON cannot plausibly be faster than 2x off.
    for mode, row in observability["modes"].items():
        assert row["rps"] > 0, f"observability mode {mode} measured no work"
        assert row["relative"] <= 2.0, f"implausible speedup in mode {mode}: {row}"
