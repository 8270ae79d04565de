"""Perf harness for the parallel experiment engine (repro.parallel).

Not a paper figure -- this benchmark tracks the engine the other
benches and the figures CLI run on.  It times one randomized-suite
workload (18 independent cells) four ways:

* serial (``jobs=1``), the baseline every other number is relative to;
* fanned out over ``jobs=4`` worker processes;
* cold through a fresh content-addressed run cache (simulate + store);
* warm through the same cache (every cell is a hit).

All four produce numerically identical p99 tables (the determinism
contract of DESIGN.md §10) -- that is asserted here, NaN-aware, before
any timing is recorded.  The timings land in the ``parallel_engine``
section of ``benchmarks/results/BENCH_manifest.json`` next to the
hot-path numbers, with the host's core count recorded because the
parallel speedup is meaningless without it: the >= 2x acceptance bar
for ``jobs=4`` is only enforced when the host actually has >= 4 cores,
while the warm-cache bar (>= 10x over cold) holds on any host.
"""

import math
import os
import time

from repro.experiments.suite import SuiteParameters, run_suite
from repro.parallel import RunCache

from conftest import emit, merge_bench_manifest, once

#: ~2.5 s of serial simulation across 18 cells: big enough that the
#: warm-cache ratio measures deserialization vs simulation, small
#: enough for CI.
BENCH_PARAMS = SuiteParameters(
    num_experiments=6,
    threads=(2, 16),
    replay_tenants=(10, 60),
    replay_speed=(0.5, 2.0),
    backlogged_tenants=(4, 16),
    expensive_tenants=(0, 8),
    unpredictable_tenants=(0, 8),
    duration=3.0,
    thread_rate=100000.0,
)
SCHEDULERS = ("wfq", "2dfq", "2dfq-e")
PARALLEL_JOBS = 4

#: Acceptance bars (ISSUE 3): parallel >= 2x at jobs=4 on a >= 4-core
#: host; warm cache >= 10x over cold anywhere.
MIN_PARALLEL_SPEEDUP = 2.0
MIN_WARM_SPEEDUP = 10.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _p99_equal(a, b):
    """NaN-aware equality of two suite p99 tables."""
    if len(a) != len(b):
        return False
    for left, right in zip(a, b):
        if left.keys() != right.keys():
            return False
        for scheduler in left:
            if left[scheduler].keys() != right[scheduler].keys():
                return False
            for tenant, x in left[scheduler].items():
                y = right[scheduler][tenant]
                if not ((math.isnan(x) and math.isnan(y)) or x == y):
                    return False
    return True


def test_bench_parallel_engine(benchmark, capsys, tmp_path):
    def measure():
        suite = lambda **kw: run_suite(BENCH_PARAMS, schedulers=SCHEDULERS, **kw)
        serial, t_serial = _timed(lambda: suite(jobs=1))
        fanned, t_parallel = _timed(lambda: suite(jobs=PARALLEL_JOBS))
        cache = RunCache(tmp_path / "runcache")
        cold, t_cold = _timed(lambda: suite(cache=cache))
        warm, t_warm = _timed(lambda: suite(cache=cache))
        return {
            "serial": (serial, t_serial),
            "parallel": (fanned, t_parallel),
            "cold": (cold, t_cold),
            "warm": (warm, t_warm),
            "cache": cache.stats(),
        }

    data = once(benchmark, measure)
    serial, t_serial = data["serial"]
    times = {mode: data[mode][1] for mode in ("serial", "parallel", "cold", "warm")}

    # Determinism first: a fast wrong answer is not a speedup.
    for mode in ("parallel", "cold", "warm"):
        result = data[mode][0]
        assert result.experiments == serial.experiments
        assert _p99_equal(result.p99, serial.p99), (
            f"{mode} run diverged from the serial baseline"
        )

    cells = len(serial.p99) * len(SCHEDULERS)
    cores = os.cpu_count() or 1
    parallel_speedup = times["serial"] / times["parallel"]
    warm_speedup = times["cold"] / times["warm"]
    section = {
        "workload": {
            "cells": cells,
            "schedulers": list(SCHEDULERS),
            "num_experiments": BENCH_PARAMS.num_experiments,
            "duration": BENCH_PARAMS.duration,
        },
        "cpu_count": cores,
        "jobs": PARALLEL_JOBS,
        "seconds": {k: round(v, 4) for k, v in times.items()},
        "parallel_speedup": round(parallel_speedup, 2),
        "warm_cache_speedup": round(warm_speedup, 2),
        "cache": data["cache"],
        "deterministic": True,
    }
    merge_bench_manifest(parallel_engine=section)

    lines = [
        f"{'mode':>10}  {'seconds':>8}  vs serial",
        *(
            f"{mode:>10}  {seconds:8.3f}  {times['serial'] / seconds:8.2f}x"
            for mode, seconds in times.items()
        ),
        "",
        f"cells: {cells}   cores: {cores}   jobs: {PARALLEL_JOBS}",
        f"cache: {data['cache']}",
        f"warm cache speedup over cold: {warm_speedup:.1f}x",
    ]
    emit(capsys, "BENCH: parallel engine (run cache)", "\n".join(lines))

    # Cache behaved: one store + one hit per cell across cold + warm.
    assert data["cache"]["stores"] == cells
    assert data["cache"]["hits"] == cells
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm cache only {warm_speedup:.1f}x faster than cold "
        f"(bar: {MIN_WARM_SPEEDUP}x)"
    )
    if cores >= PARALLEL_JOBS:
        assert parallel_speedup >= MIN_PARALLEL_SPEEDUP, (
            f"jobs={PARALLEL_JOBS} only {parallel_speedup:.2f}x over serial "
            f"on a {cores}-core host (bar: {MIN_PARALLEL_SPEEDUP}x)"
        )
