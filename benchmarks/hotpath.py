"""Scheduler hot-path microbenchmarks.

Two measurements that locate costs inside the scheduler core; the
end-to-end speed of figure runs is measured by ``benchmarks/e2e``.

* :func:`measure_adaptive_crossover` -- forced-index vs linear-scan
  dequeue throughput over small backlogs, the empirical basis of the
  adaptive selection thresholds ``AUTO_INDEX_HIGH``/``AUTO_INDEX_LOW``
  (``VirtualTimeScheduler``; DESIGN.md §15);
* :func:`measure_observability_overhead` -- the same dispatch cycle with
  tracing disabled, traced, and audited (DESIGN.md §9).

Both time :func:`measure_dequeue_throughput`: full dispatch cycles

    dequeue -> complete (retroactive charge + estimator observe)
            -> enqueue a replacement for the same tenant

with N tenants held continuously backlogged, so the numbers cover the
whole bookkeeping path, not just the selection scan.  Wallclock timings
vary with the host; the ratios are the signal.
``benchmarks/test_bench_perf_hotpath.py`` records both into
``benchmarks/results/BENCH_manifest.json``.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core import make_scheduler
from repro.core.request import Request
from repro.obs.audit import AuditConfig, FairnessAuditor
from repro.obs.flight import FlightRecorder
from repro.obs.registry import Timer
from repro.obs.tracer import Tracer
from repro.simulator.rng import make_rng

__all__ = [
    "measure_adaptive_crossover",
    "measure_dequeue_throughput",
    "measure_observability_overhead",
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


def measure_dequeue_throughput(
    scheduler_name: str,
    num_tenants: int,
    num_threads: int = 4,
    thread_rate: float = 1.0,
    ops: Optional[int] = None,
    seed: int = 0,
    indexed: Union[bool, str] = True,
    repeats: int = 2,
    tracer_factory: Optional[Callable[[], Tracer]] = None,
) -> Dict[str, Union[str, int, float, bool]]:
    """Time ``ops`` full dispatch cycles with ``num_tenants`` backlogged.

    Returns a record with ``rps`` (dispatches per wallclock second, best
    of ``repeats`` runs on freshly built schedulers).  ``indexed``
    accepts the scheduler's three selection modes (``True`` forces the
    index, ``False`` the linear scans, ``"auto"`` the shipped adaptive
    default).  ``tracer_factory`` (one fresh tracer per repetition)
    turns on event emission for the timed region; the default ``None``
    measures the shipped disabled path.
    """
    if ops is None:
        ops = _default_ops(num_tenants)
    rng = make_rng(seed, "hotpath-costs", scheduler_name, str(num_tenants))
    replacement_costs = 10.0 ** rng.uniform(0.0, 4.0, ops)
    best = float("inf")
    timer = Timer(f"hotpath.{scheduler_name}.{num_tenants}")
    for _ in range(max(1, repeats)):
        scheduler = make_scheduler(
            scheduler_name,
            num_threads=num_threads,
            thread_rate=thread_rate,
            indexed=indexed,
        )
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
        "indexed": indexed,
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
                indexed=mode,
                repeats=repeats,
            )
            for mode in (True, False)
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
        "rows": rows,
        "crossover_tenants": crossover,
        "auto_high": getattr(type(scheduler), "AUTO_INDEX_HIGH", None),
        "auto_low": getattr(type(scheduler), "AUTO_INDEX_LOW", None),
    }


def _audited_tracer(scheduler_name: str, num_threads: int) -> Tracer:
    """The ``--audit`` sink stack on a bounded tracer: auditor + flight
    recorder fed by every event, event retention capped (streaming
    shape)."""
    tracer = Tracer(f"hotpath-audited-{scheduler_name}", max_events=2048)
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
    * ``traced`` -- a bounded tracer attached (event emission plus the
      per-phase scheduler timers the span builder consumes);
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
