"""Scheduler hot-path microbenchmarks.

Measurements that locate costs inside the scheduler core and the
metrics sampler; the end-to-end speed of figure runs is measured by
``benchmarks/e2e``.

* :func:`measure_adaptive_crossover` -- forced-index vs linear-scan
  dequeue throughput over small backlogs, the empirical basis of the
  adaptive selection thresholds ``AUTO_INDEX_HIGH``/``AUTO_INDEX_LOW``
  (``VirtualTimeScheduler``; DESIGN.md §15);
* :func:`measure_observability_overhead` -- the same dispatch cycle with
  tracing disabled, traced, and audited (DESIGN.md §9);
* :func:`measure_export` -- seconds per 10k rows of the two event
  exporters over an unbounded audited tracer's rows (DESIGN.md §9).

* :func:`measure_metrics_sample` -- the cost of one periodic metrics
  sample early and late in a run (DESIGN.md §13), whose ratio exposes
  any per-sample cost that grows with the samples already taken.

* :func:`measure_event_loop` -- events per second through
  ``Simulation.run`` for self-rescheduling timers, with and without
  cancel churn (the event kernel, DESIGN.md §8).

* :func:`measure_server_backlog` -- microseconds per completed request
  of a server-driven 2DFQ^E run on 64 threads with hundreds to
  thousands of closed-loop tenants (DESIGN.md §15).

The first two time :func:`measure_dequeue_throughput`: full dispatch cycles

    dequeue -> complete (retroactive charge + estimator observe)
            -> enqueue a replacement for the same tenant

with N tenants held continuously backlogged, so the numbers cover the
whole bookkeeping path, not just the selection scan.  Wallclock timings
vary with the host; the ratios are the signal.

That driver is not a server.  It dispatches every 0.1 ms of simulated
time on threads of rate 1.0, about 10^4 times faster than the pool
could serve costs of 1 to 10^4, so start tags run far ahead of the
virtual time and most gated queries find no tenant eligible and fall
back (92-99% of 2DFQ's queries at 16-100 tenants on 4 threads).  There
the index scans its whole list before falling back, so the crossover
sweep measures the index at its worst.  A server-driven run
dispatches only when a worker frees, virtual time keeps up with the
tags, and the pick is almost always one of the first few entries in
finish order; :func:`measure_server_backlog` measures that regime.
``benchmarks/test_bench_perf_hotpath.py`` records all five into
``benchmarks/results/BENCH_manifest.json``.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core import make_scheduler
from repro.core.request import Request
from repro.core.scheduler import Scheduler
from repro.metrics import MetricsCollector
from repro.obs.audit import AuditConfig, FairnessAuditor
from repro.obs.exporters import write_chrome_trace, write_rows_jsonl
from repro.obs.flight import FlightRecorder
from repro.obs.registry import Timer
from repro.obs.tracer import Tracer
from repro.simulator.clock import Simulation
from repro.simulator.events import EventHandle
from repro.simulator.rng import make_rng
from repro.simulator.server import ThreadPoolServer
from repro.simulator.sources import BackloggedSource

__all__ = [
    "EVENT_LOOP_CHURN",
    "EVENT_LOOP_TIMERS",
    "measure_adaptive_crossover",
    "measure_dequeue_throughput",
    "measure_event_loop",
    "measure_export",
    "measure_metrics_sample",
    "METRICS_SAMPLES",
    "METRICS_SAMPLE_SHAPES",
    "measure_observability_overhead",
    "measure_server_backlog",
    "pin_selection",
    "SERVER_BACKLOG_TENANTS",
    "quiesced_gc",
]


@contextlib.contextmanager
def quiesced_gc() -> Iterator[None]:
    """Collect, then disable the cyclic GC for a timed region.

    Benchmarks that build many objects otherwise spend more wallclock in
    generational collections triggered by *earlier* measurements than in
    the code under test -- the classic order-dependent bench distortion.
    Timed regions here allocate and release acyclic objects only, so
    disabling the collector is safe.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


#: APIs drawn for the synthetic backlog; a small set keeps estimator
#: state realistic (a few keys per tenant) without unbounded growth.
_APIS = ("A", "C", "G")


def _default_ops(num_tenants: int) -> int:
    """Dispatches per timing repetition: enough samples to be stable,
    capped so the O(N) linear reference stays affordable at large N."""
    return max(500, min(3000, 300_000 // num_tenants))


def _build_backlog(
    scheduler_name: str, num_tenants: int, seed: int
) -> List[Request]:
    """Seeded initial backlog: two queued requests per tenant, so no
    tenant drains mid-measurement."""
    rng = make_rng(seed, "hotpath", scheduler_name, str(num_tenants))
    initial: List[Request] = []
    for i in range(num_tenants):
        for _ in range(2):
            initial.append(
                Request(
                    tenant_id=f"t{i:05d}",
                    cost=float(10.0 ** rng.uniform(0.0, 4.0)),
                    api=str(rng.choice(_APIS)),
                )
            )
    return initial


def pin_selection(scheduler: Scheduler, path: str) -> None:
    """Pin a virtual-time scheduler's selection path through its
    adaptive thresholds: ``"index"`` builds the index at the first
    enqueue and keeps it, ``"linear"`` never builds it, ``"auto"`` keeps
    the shipped thresholds."""
    if path == "index":
        scheduler.AUTO_INDEX_HIGH, scheduler.AUTO_INDEX_LOW = 1, 0
    elif path == "linear":
        scheduler.AUTO_INDEX_HIGH = sys.maxsize
    elif path != "auto":
        raise ValueError(f"path must be 'index', 'linear' or 'auto', got {path!r}")


def measure_dequeue_throughput(
    scheduler_name: str,
    num_tenants: int,
    num_threads: int = 4,
    thread_rate: float = 1.0,
    ops: Optional[int] = None,
    seed: int = 0,
    path: str = "index",
    repeats: int = 2,
    tracer_factory: Optional[Callable[[], Tracer]] = None,
) -> Dict[str, Union[str, int, float, bool]]:
    """Time ``ops`` full dispatch cycles with ``num_tenants`` backlogged.

    Returns a record with ``rps`` (dispatches per wallclock second, best
    of ``repeats`` runs on freshly built schedulers).  ``path`` pins the
    selection path (:func:`pin_selection`).  ``tracer_factory`` (one
    fresh tracer per repetition) turns on event emission for the timed
    region; the default ``None`` measures the shipped disabled path.
    """
    if ops is None:
        ops = _default_ops(num_tenants)
    rng = make_rng(seed, "hotpath-costs", scheduler_name, str(num_tenants))
    replacement_costs = 10.0 ** rng.uniform(0.0, 4.0, ops)
    best = float("inf")
    timer = Timer(f"hotpath.{scheduler_name}.{num_tenants}")
    for _ in range(max(1, repeats)):
        scheduler = make_scheduler(
            scheduler_name, num_threads=num_threads, thread_rate=thread_rate
        )
        pin_selection(scheduler, path)
        if tracer_factory is not None:
            scheduler.attach_tracer(tracer_factory())
        initial = _build_backlog(scheduler_name, num_tenants, seed)
        for request in initial:
            scheduler.enqueue(request, 0.0)
        # Pre-build replacement requests outside the timed region; the
        # loop only rebinds their tenant to whoever was just served, so
        # the backlog stays at exactly ``num_tenants`` tenants.
        replacements = [
            Request(tenant_id="", cost=float(cost)) for cost in replacement_costs
        ]
        dequeue = scheduler.dequeue
        complete = scheduler.complete
        enqueue = scheduler.enqueue
        dt = 1e-4
        now = 0.0
        with quiesced_gc(), timer:
            for i, replacement in enumerate(replacements):
                now += dt
                out = dequeue(i % num_threads, now)
                complete(out, out.cost, now)
                replacement.tenant_id = out.tenant_id
                replacement.api = out.api
                enqueue(replacement, now)
        best = min(best, timer.last)
    return {
        "scheduler": scheduler_name,
        "tenants": num_tenants,
        "threads": num_threads,
        "path": path,
        "ops": ops,
        "seconds": best,
        "rps": ops / best if best > 0 else float("inf"),
    }


def measure_adaptive_crossover(
    scheduler_name: str,
    tenant_counts: Sequence[int] = (2, 4, 8, 16, 24, 32, 48, 64),
    num_threads: int = 4,
    ops: Optional[int] = None,
    seed: int = 0,
    repeats: int = 2,
) -> Dict:
    """Locate the backlog size where the index starts winning.

    Measures forced-indexed vs linear throughput over a sweep of small
    backlog sizes and reports the smallest N where the index is at
    least break-even -- the empirical basis for the adaptive policy's
    ``AUTO_INDEX_HIGH``/``AUTO_INDEX_LOW`` thresholds (which sit above
    the slowest policy's crossover with a 2x hysteresis band; see
    ``VirtualTimeScheduler``).
    """
    rows: List[Dict] = []
    crossover: Optional[int] = None
    for num_tenants in tenant_counts:
        indexed, linear = (
            measure_dequeue_throughput(
                scheduler_name,
                num_tenants,
                num_threads=num_threads,
                ops=ops,
                seed=seed,
                path=path,
                repeats=repeats,
            )
            for path in ("index", "linear")
        )
        ratio = indexed["rps"] / linear["rps"] if linear["rps"] else float("inf")
        rows.append(
            {
                "tenants": num_tenants,
                "indexed_rps": round(float(indexed["rps"]), 1),
                "linear_rps": round(float(linear["rps"]), 1),
                "ratio": round(float(ratio), 3),
            }
        )
        if crossover is None and ratio >= 1.0:
            crossover = num_tenants
    scheduler = make_scheduler(scheduler_name, num_threads=num_threads)
    return {
        "scheduler": scheduler_name,
        "threads": num_threads,
        "rows": rows,
        "crossover_tenants": crossover,
        "auto_high": getattr(type(scheduler), "AUTO_INDEX_HIGH", None),
        "auto_low": getattr(type(scheduler), "AUTO_INDEX_LOW", None),
    }


def _audited_tracer(
    scheduler_name: str, num_threads: int, max_events: Optional[int] = 2048
) -> Tracer:
    """The ``--audit`` sink stack: auditor + flight recorder fed by every
    event, event retention capped at ``max_events`` (by default the
    streaming shape; ``None`` keeps every row, as an exported run does)."""
    tracer = Tracer(f"hotpath-audited-{scheduler_name}", max_events=max_events)
    auditor = FairnessAuditor(AuditConfig(capacity=float(num_threads)), tracer)
    tracer.add_sink(auditor.on_event)
    recorder = FlightRecorder(capacity=512)
    tracer.add_sink(recorder.on_event)
    return tracer


def measure_observability_overhead(
    scheduler_name: str = "2dfq",
    num_tenants: int = 100,
    num_threads: int = 4,
    ops: Optional[int] = None,
    seed: int = 0,
    repeats: int = 3,
) -> Dict:
    """Relative hot-path cost of each observability layer.

    Times the identical dispatch-cycle workload three ways:

    * ``disabled`` -- no tracer attached (the shipped default; every
      instrumentation site is one ``is not None`` check);
    * ``traced`` -- a bounded tracer attached (event emission and the
      registry counters);
    * ``audited`` -- the tracer additionally feeding the fairness
      auditor and the flight recorder as sinks (the CLI ``--audit``
      configuration).

    Returns per-mode ``rps`` and throughput relative to ``disabled``
    (1.0 = free, 0.5 = half speed).
    """
    modes: List[Tuple[str, Optional[Callable[[], Tracer]]]] = [
        ("disabled", None),
        (
            "traced",
            lambda: Tracer(f"hotpath-traced-{scheduler_name}", max_events=2048),
        ),
        ("audited", lambda: _audited_tracer(scheduler_name, num_threads)),
    ]
    measured: Dict[str, Dict] = {}
    for mode, factory in modes:
        record = measure_dequeue_throughput(
            scheduler_name,
            num_tenants,
            num_threads=num_threads,
            ops=ops,
            seed=seed,
            repeats=repeats,
            tracer_factory=factory,
        )
        measured[mode] = {"rps": round(float(record["rps"]), 1)}
    disabled_rps = measured["disabled"]["rps"]
    for mode in measured:
        measured[mode]["relative"] = (
            round(measured[mode]["rps"] / disabled_rps, 3) if disabled_rps else 0.0
        )
    return {
        "scheduler": scheduler_name,
        "tenants": num_tenants,
        "threads": num_threads,
        "ops": ops if ops is not None else _default_ops(num_tenants),
        "modes": measured,
    }


def measure_export(
    scheduler_name: str = "2dfq",
    num_tenants: int = 100,
    num_threads: int = 4,
    ops: Optional[int] = None,
    seed: int = 0,
    repeats: int = 3,
) -> Dict[str, Union[int, float]]:
    """Seconds per 10k rows of ``write_rows_jsonl`` and
    ``write_chrome_trace``, best of ``repeats``.

    The rows are those of an unbounded audited tracer (the ``--audit``
    sink stack, every row kept) after ``ops`` dispatch cycles of
    :func:`measure_dequeue_throughput` (default 10,000: about four rows
    per cycle).  Each exporter writes to a temporary directory.
    """
    tracer = _audited_tracer(scheduler_name, num_threads, max_events=None)
    measure_dequeue_throughput(
        scheduler_name,
        num_tenants,
        num_threads=num_threads,
        ops=ops if ops is not None else 10_000,
        seed=seed,
        repeats=1,
        tracer_factory=lambda: tracer,
    )
    rows = tracer.rows
    best = {"jsonl": float("inf"), "chrome": float("inf")}
    clock = time.perf_counter
    with tempfile.TemporaryDirectory() as scratch, quiesced_gc():
        out = Path(scratch)
        for _ in range(max(1, repeats)):
            start = clock()
            write_rows_jsonl(rows, out / "events.jsonl")
            middle = clock()
            write_chrome_trace(rows, out / "chrome_trace.json")
            best["chrome"] = min(best["chrome"], clock() - middle)
            best["jsonl"] = min(best["jsonl"], middle - start)
    per_10k = 1e4 / len(rows)
    return {
        "rows": len(rows),
        "jsonl_s_per_10k": round(best["jsonl"] * per_10k, 5),
        "chrome_s_per_10k": round(best["chrome"] * per_10k, 5),
    }


#: (tenants, threads) of the metrics-sample cells: ``quickstart``'s and
#: ``production``'s shapes.
METRICS_SAMPLE_SHAPES = ((8, 4), (262, 32))
#: Samples per metrics-sample run, and the simulated time between them.
METRICS_SAMPLES = 1500
METRICS_SAMPLE_INTERVAL = 0.1


def _sampled_run(
    num_tenants: int, num_threads: int
) -> Tuple[Simulation, MetricsCollector]:
    """A server whose only events are its collector's samples:
    ``num_tenants`` tenants each submit two requests far too long to
    finish, so every worker stays busy and every tenant stays backlogged
    (and in the Gini sample).  Returns the simulation and its collector."""
    sim = Simulation()
    server = ThreadPoolServer(
        sim,
        make_scheduler("2dfq", num_threads=num_threads),
        num_threads,
        refresh_interval=None,
    )
    collector = MetricsCollector(server, sample_interval=METRICS_SAMPLE_INTERVAL)
    for i in range(num_tenants):
        for _ in range(2):
            server.submit(Request(tenant_id=f"t{i:05d}", cost=1e9, api="A"))
    return sim, collector


def measure_metrics_sample(
    num_tenants: int, num_threads: int
) -> Dict[str, Union[int, float]]:
    """Microseconds per periodic metrics sample, early and late in a run
    of :data:`METRICS_SAMPLES` samples.

    Two identical runs (:func:`_sampled_run`) are timed side by side:
    one through the first 10% of its samples, the other -- advanced
    untimed to the start of the last 10% -- through the last 10%, one
    sample of each in turn, so a change in host speed hits both alike.
    ``first_us`` and ``last_us`` are the median per-sample times;
    ``growth`` is their ratio: about 1.0 when a sample costs
    O(tenants + threads), above 1.0 when its cost grows with the samples
    already taken.  The collector folds every sample's Gini index at
    ``result()``, so ``result_us`` -- the late run's ``result()`` time
    divided by its samples -- is the rest of a sample's cost.
    """
    samples = METRICS_SAMPLES
    interval = METRICS_SAMPLE_INTERVAL
    window = max(1, samples // 10)
    early, _ = _sampled_run(num_tenants, num_threads)
    late, collector = _sampled_run(num_tenants, num_threads)
    late.run(until=(samples - window) * interval)
    first: List[float] = []
    last: List[float] = []
    clock = time.perf_counter
    with quiesced_gc():
        for k in range(1, window + 1):
            start = clock()
            early.run(until=k * interval)
            middle = clock()
            late.run(until=(samples - window + k) * interval)
            last.append(clock() - middle)
            first.append(middle - start)
        start = clock()
        collector.result()
        result_us = (clock() - start) / samples * 1e6
    first_us = statistics.median(first) * 1e6
    last_us = statistics.median(last) * 1e6
    return {
        "tenants": num_tenants,
        "threads": num_threads,
        "samples": samples,
        "first_us": round(first_us, 1),
        "last_us": round(last_us, 1),
        "growth": round(last_us / first_us, 3) if first_us > 0 else 0.0,
        "result_us": round(result_us, 2),
    }


#: Self-rescheduling timers in the event-loop cells, the share of ticks
#: that also arm a timeout for the timer's next tick to cancel, and the
#: events fired per timed run at full scale.
EVENT_LOOP_TIMERS = 64
EVENT_LOOP_CHURN = (0.0, 0.1)
EVENT_LOOP_EVENTS = 200_000


def _no_timeout() -> None:
    pass


def measure_event_loop(
    churn: float, events: Optional[int] = None, repeats: int = 2
) -> Dict[str, Union[int, float]]:
    """Events per second fired by ``Simulation.run`` for
    :data:`EVENT_LOOP_TIMERS` self-rescheduling timers.

    Timer ``i`` ticks every ``1 + i/64`` simulated seconds and re-arms
    itself with ``after``.  With ``churn`` > 0, that share of ticks (a
    seeded draw) also arms a timeout 1000 s out, which the timer's next
    tick cancels: lazy cancellation and heap compaction run inside the
    loop, as a fleet's deadline timers make them.  ``events`` (default
    :data:`EVENT_LOOP_EVENTS`) fire per run; the best of ``repeats``
    runs on fresh simulations is kept.
    """
    if events is None:
        events = EVENT_LOOP_EVENTS
    timers = EVENT_LOOP_TIMERS
    rng = make_rng(0, "hotpath-event-loop", str(churn))
    arms = (rng.random(events + timers) < churn).tolist()
    best = float("inf")
    clock = time.perf_counter
    for _ in range(max(1, repeats)):
        sim = Simulation()
        timeouts: List[Optional[EventHandle]] = [None] * timers
        draws = iter(arms)

        def tick(i: int, period: float) -> None:
            timeout = timeouts[i]
            if timeout is not None:
                sim.cancel(timeout)
                timeouts[i] = None
            if next(draws):
                timeouts[i] = sim.after(1000.0, _no_timeout)
            sim.after(period, tick, i, period)

        for i in range(timers):
            sim.at(0.0, tick, i, 1.0 + i / timers)
        with quiesced_gc():
            start = clock()
            sim.run(max_events=events)
            best = min(best, clock() - start)
    return {
        "timers": timers,
        "churn": churn,
        "events": events,
        "events_per_s": round(events / best, 1) if best > 0 else 0.0,
    }


#: Closed-loop tenant counts of the server-driven large-backlog rows.
SERVER_BACKLOG_TENANTS = (200, 1000, 3000)


def measure_server_backlog(
    num_tenants: int,
    num_threads: int = 64,
    horizon: float = 0.5,
    seed: int = 0,
    repeats: int = 2,
) -> Dict[str, Union[int, float]]:
    """Microseconds per completed request of a server-driven run.

    2DFQ^E on ``num_threads`` threads of 1000 units/s with 10 ms refresh
    charging, and ``num_tenants`` closed-loop tenants with one request
    in flight each, costs log-normal (median 1): the backlog stays near
    ``num_tenants`` and selection runs on the index under the shipped
    thresholds.  ``horizon`` simulated seconds is about 19,000
    requests; best of ``repeats`` fresh runs, timed from the first
    event to the horizon.
    """
    best = float("inf")
    completed = 0
    for _ in range(max(1, repeats)):
        sim = Simulation()
        server = ThreadPoolServer(
            sim,
            make_scheduler("2dfq-e", num_threads, thread_rate=1000.0),
            num_threads,
            rate=1000.0,
            refresh_interval=0.01,
        )
        rng = make_rng(seed, "server-backlog", str(num_tenants))
        # About 2.5x the draws the run takes: one per tenant to start,
        # one per completion after that.
        draws = num_tenants + int(horizon * 100_000)
        costs = iter(rng.lognormal(0.0, 1.0, size=draws).tolist())
        for i in range(num_tenants):
            BackloggedSource(
                server, f"t{i:05d}", lambda: ("A", next(costs)), window=1
            ).start()
        with quiesced_gc():
            start = time.perf_counter()
            sim.run(until=horizon)
            seconds = time.perf_counter() - start
        completed = server.completed_requests
        best = min(best, seconds)
    return {
        "tenants": num_tenants,
        "threads": num_threads,
        "horizon": horizon,
        "completed": completed,
        "us_per_request": round(best / completed * 1e6, 2) if completed else 0.0,
    }
