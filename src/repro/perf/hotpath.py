"""Scheduler hot-path timing harness.

Measures sustained ``dequeue`` throughput (dispatches per second of
wallclock) with N tenants held continuously backlogged -- the regime
where selection cost dominates simulator runtime.  Each measurement
drives the full dispatch cycle a real simulation performs per request:

    dequeue -> complete (retroactive charge + estimator observe)
            -> enqueue a replacement for the same tenant

so the numbers reflect the whole bookkeeping path, not just the
selection scan.  Every scheduler is measured in all three selection
modes -- the reference linear scans (``indexed=False``), the forced
index (``indexed=True``) and the shipped adaptive default
(``indexed="auto"``) -- with repetitions interleaved across modes and
paired per repetition (:func:`measure_paired_cell`), so the reported
speedups are robust to allocator-layout session drift; the ratio is
the speedup the selection mode buys at that backlog size.

Results are persisted as ``BENCH_schedulers.json`` (see
``benchmarks/test_bench_perf_hotpath.py``) so the performance
trajectory is tracked from PR to PR.  Wallclock timings vary with the
host, so treat absolute requests/sec as indicative; the indexed/linear
ratio is the stable signal.

Each indexed cell also reports the :class:`SelectionIndex`'s
lazy-invalidation churn (stale pops, heap rebuilds, pushes), so the
index's bookkeeping cost is tracked alongside the throughput it buys.
The schedulers run with no tracer attached -- the shipped default -- so
these numbers double as the disabled-tracer overhead measurement the
observability contract is held to (DESIGN.md §9).
"""

from __future__ import annotations

import contextlib
import gc
import json
import platform
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core import make_scheduler
from ..core.request import Request
from ..obs.audit import AuditConfig, FairnessAuditor
from ..obs.flight import FlightRecorder
from ..obs.registry import Timer
from ..obs.tracer import Tracer
from ..simulator.rng import make_rng

__all__ = [
    "DEFAULT_SCHEDULERS",
    "DEFAULT_TENANT_COUNTS",
    "measure_dequeue_throughput",
    "measure_paired_cell",
    "measure_adaptive_crossover",
    "measure_observability_overhead",
    "quiesced_gc",
    "run_hotpath_suite",
    "format_results",
    "write_results",
]


@contextlib.contextmanager
def quiesced_gc() -> Iterator[None]:
    """Collect, then disable the cyclic GC for a timed region.

    Benchmarks that build tens of thousands of objects (a 10k-tenant
    backlog) otherwise spend more wallclock in generational collections
    triggered by *earlier* measurements than in the code under test --
    the classic order-dependent bench distortion.  Timed regions here
    allocate and release acyclic objects only, so disabling the
    collector is safe.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()

#: Virtual-time schedulers with both a linear and an indexed selection
#: path; FIFO/RR/DRR are O(1) by construction and not interesting here.
DEFAULT_SCHEDULERS: Tuple[str, ...] = (
    "wfq",
    "sfq",
    "wf2q",
    "wf2q+",
    "msf2q",
    "2dfq",
    "2dfq-e",
    "wf2q-e",
)

DEFAULT_TENANT_COUNTS: Tuple[int, ...] = (2, 10, 100, 1000, 10000)

#: APIs drawn for the synthetic backlog; a small set keeps estimator
#: state realistic (a few keys per tenant) without unbounded growth.
_APIS = ("A", "C", "G")


def _default_ops(num_tenants: int) -> int:
    """Dispatches per timing repetition: enough samples to be stable,
    capped so the O(N) linear reference stays affordable at N=1000."""
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
    default); ``selection_mode``/``index_active`` in the record say
    which mode ran and whether an index was live at the end.
    ``tracer_factory`` (one fresh tracer per repetition) turns on event
    emission for the timed region; the default ``None`` measures the
    shipped disabled path.
    """
    if ops is None:
        ops = _default_ops(num_tenants)
    rng = make_rng(seed, "hotpath-costs", scheduler_name, str(num_tenants))
    replacement_costs = 10.0 ** rng.uniform(0.0, 4.0, ops)
    best = float("inf")
    timer = Timer(f"hotpath.{scheduler_name}.{num_tenants}")
    scheduler = None
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
    record: Dict[str, Union[str, int, float, bool, Dict[str, int]]] = {
        "scheduler": scheduler_name,
        "tenants": num_tenants,
        "threads": num_threads,
        "indexed": indexed,
        "selection_mode": getattr(scheduler, "selection_mode", "linear"),
        "index_active": bool(getattr(scheduler, "indexed", False)),
        "ops": ops,
        "seconds": best,
        "rps": ops / best if best > 0 else float("inf"),
    }
    index = getattr(scheduler, "selection_index", None)
    if index is not None:
        # Churn of the final repetition; the workload is deterministic,
        # so every repetition churns identically.
        record["index_stats"] = index.stats()
    return record


#: Allocator-perturbation pad bounds for paired measurements (list
#: lengths, i.e. up to 64 KiB of backing store per pad).
_JITTER_PAD_RANGE = (16, 8192)


def measure_paired_cell(
    scheduler_name: str,
    num_tenants: int,
    num_threads: int = 4,
    ops: Optional[int] = None,
    seed: int = 0,
    repeats: int = 2,
    modes: Sequence[Union[bool, str]] = (True, False, "auto"),
) -> Tuple[Dict[Union[bool, str], Dict], Dict[Union[bool, str], List[float]]]:
    """Measure one (scheduler, backlog) cell in every selection mode,
    with repetitions interleaved across modes and the allocator
    perturbed between builds.

    Timing each mode in its own best-of-k session is biased: the
    identical build sequence lands the hot dicts at the same arena
    offsets every repetition, so two sessions running byte-identical
    code can differ by 10-20% *consistently* -- drift that best-of-k
    cannot average away (measured here: sequential best-of-20 put
    auto/linear at 0.86x for one policy and 1.23x for another when the
    two modes execute the same instructions).  Interleaving the modes
    and holding a pseudorandom-length pad alive across each
    measurement decorrelates the layouts, and per-repetition *paired*
    ratios against the linear reference cancel whatever session drift
    remains.

    Returns ``(cells, ratios)``: per-mode records as produced by
    :func:`measure_dequeue_throughput` (``rps`` = best of ``repeats``)
    and, for every non-reference mode, the per-repetition rps ratio
    against ``False`` (the linear reference).
    """
    rng = make_rng(seed, "hotpath-layout", scheduler_name, str(num_tenants))
    samples: Dict[Union[bool, str], List[float]] = {mode: [] for mode in modes}
    cells: Dict[Union[bool, str], Dict] = {}
    for _ in range(max(1, repeats)):
        for mode in modes:
            pad = [0] * int(rng.integers(*_JITTER_PAD_RANGE))
            record = measure_dequeue_throughput(
                scheduler_name,
                num_tenants,
                num_threads=num_threads,
                ops=ops,
                seed=seed,
                indexed=mode,
                repeats=1,
            )
            del pad
            samples[mode].append(float(record["rps"]))
            prev = cells.get(mode)
            if prev is None or record["rps"] > prev["rps"]:
                cells[mode] = record
    ratios = {
        mode: [
            rps / ref if ref else float("inf")
            for rps, ref in zip(samples[mode], samples[False])
        ]
        for mode in modes
        if mode is not False
    }
    return cells, ratios


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
        indexed = measure_dequeue_throughput(
            scheduler_name,
            num_tenants,
            num_threads=num_threads,
            ops=ops,
            seed=seed,
            indexed=True,
            repeats=repeats,
        )
        linear = measure_dequeue_throughput(
            scheduler_name,
            num_tenants,
            num_threads=num_threads,
            ops=ops,
            seed=seed,
            indexed=False,
            repeats=repeats,
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
    (1.0 = free, 0.5 = half speed).  Enabled-mode cost is recorded for
    the trajectory, not gated: only the disabled path carries a perf
    contract (DESIGN.md §9).
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


def run_hotpath_suite(
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    tenant_counts: Sequence[int] = DEFAULT_TENANT_COUNTS,
    num_threads: int = 4,
    ops: Optional[int] = None,
    seed: int = 0,
    repeats: int = 2,
) -> Dict:
    """Measure every (scheduler, backlog size) cell in both selection
    modes and return the comparison table as a JSON-ready dict."""
    rows: List[Dict] = []
    for num_tenants in tenant_counts:
        for name in schedulers:
            # Below the adaptive threshold auto and linear execute the
            # same instructions, so the cells are pure noise floor --
            # and cheap (tens of ms each).  Spend extra interleaved
            # repetitions there so the paired estimate converges.
            cell_repeats = repeats if num_tenants > 10 else max(4 * repeats, 12)
            cells, ratios = measure_paired_cell(
                name,
                num_tenants,
                num_threads=num_threads,
                ops=ops,
                seed=seed,
                repeats=cell_repeats,
            )
            indexed, linear, auto = cells[True], cells[False], cells["auto"]
            stats = indexed.get("index_stats", {})
            rows.append(
                {
                    "scheduler": name,
                    "tenants": num_tenants,
                    "threads": num_threads,
                    "ops": indexed["ops"],
                    "indexed_rps": round(indexed["rps"], 1),
                    "linear_rps": round(linear["rps"], 1),
                    "auto_rps": round(auto["rps"], 1),
                    # The headline speedup is what the *shipped default*
                    # buys over the linear reference; the forced-index
                    # ratio rides along for the crossover trajectory.
                    # Both are the best paired per-repetition ratio --
                    # pairing cancels the arena-layout session drift
                    # that biases a ratio of independent best-of runs
                    # (see measure_paired_cell).
                    "speedup": round(max(ratios["auto"]), 2),
                    "indexed_speedup": round(max(ratios[True]), 2),
                    # Which side of the adaptive threshold this backlog
                    # size landed on ("linear" below, "indexed" above).
                    "auto_index_active": auto["index_active"],
                    # SelectionIndex lazy-invalidation churn for the
                    # forced-indexed run (absolute counts over ``ops``
                    # cycles).
                    "stale_pops": stats.get("stale_pops", 0),
                    "heap_rebuilds": stats.get("rebuilds", 0),
                    "heap_pushes": stats.get("pushes", 0),
                    "index_touches": stats.get("touches", 0),
                }
            )
    return {
        "meta": {
            "benchmark": "scheduler-hotpath-dequeue-throughput",
            "python": platform.python_version(),
            "machine": platform.machine(),
            "num_threads": num_threads,
            "seed": seed,
            "repeats": repeats,
            "note": (
                "rps = full dispatch cycles (dequeue+complete+enqueue) per "
                "wallclock second with N tenants continuously backlogged, "
                "per selection mode (linear reference / forced index / "
                "adaptive auto default); repetitions are interleaved "
                "across modes with the allocator perturbed between "
                "builds, and speedup / indexed_speedup are the best "
                "paired per-repetition rps ratio of auto / forced-index "
                "against the linear reference (pairing cancels arena-"
                "layout session drift; small-N cells run extra "
                "repetitions); stale_pops/"
                "heap_rebuilds/heap_pushes/index_touches = SelectionIndex "
                "lazy-invalidation churn of the forced-indexed run; no "
                "tracer attached (disabled-tracing default)"
            ),
        },
        "results": rows,
    }


def format_results(payload: Dict) -> str:
    """Render the suite results as an aligned text table."""
    lines = [
        f"{'scheduler':<10} {'tenants':>7} {'linear rps':>12} "
        f"{'indexed rps':>12} {'auto rps':>12} {'auto mode':>9} "
        f"{'speedup':>8} {'stale pops':>11} {'rebuilds':>9}"
    ]
    for row in payload["results"]:
        auto_mode = "indexed" if row.get("auto_index_active") else "linear"
        lines.append(
            f"{row['scheduler']:<10} {row['tenants']:>7} "
            f"{row['linear_rps']:>12.1f} {row['indexed_rps']:>12.1f} "
            f"{row.get('auto_rps', row['indexed_rps']):>12.1f} "
            f"{auto_mode:>9} "
            f"{row['speedup']:>7.2f}x {row.get('stale_pops', 0):>11} "
            f"{row.get('heap_rebuilds', 0):>9}"
        )
    return "\n".join(lines)


def write_results(payload: Dict, path: Union[str, Path]) -> Path:
    """Persist suite results as pretty-printed JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
