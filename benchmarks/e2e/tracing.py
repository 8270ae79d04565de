"""Outside-in layer tracing for the end-to-end benchmark.

The traced pass times calls *into* each layer of the repro package from
the benchmark's own code: before a workload runs, :func:`install` wraps
the layers' entry points at class or module level, and every call
becomes one span.  No source file of the package changes.

Entry points, by layer (a scheduled callback belongs to the layer of
the module of its owner, ``fn.__self__``):

* ``clock`` -- ``Simulation.run``, ``at``/``after`` (which also turn
  every scheduled callback into a span of its owner's layer) and
  ``cancel``;
* ``core`` -- ``enqueue/dequeue/dequeue_batch/complete/refresh/cancel``
  on every class in the MRO of ``SCHEDULER_CLASSES``;
* ``estimation`` -- ``estimate/observe`` of every ``CostEstimator``
  subclass;
* ``gps`` -- ``GPSReference.arrive/advance/service``;
* ``server`` / ``sources`` / ``fleet`` -- scheduled callbacks, plus
  ``ThreadPoolServer.submit``, ``Source.on_request_complete``,
  ``Fleet.submit`` and ``Router.route``;
* ``metrics`` -- listeners registered through ``server.on_*`` /
  ``fleet.on_*``, the sampling callbacks, ``result()`` and the figure
  reductions of the benchmark's cell module;
* ``obs`` -- ``Tracer`` emitters (the sinks run inside them), the
  auditor's sample hook, registry instruments, ``current_session`` and
  ``TraceSession.export_run``;
* ``workloads`` -- the population, trace and transform functions, at
  every module-level name they are bound to.

A call made while a span of the same layer is innermost (a ``super()``
call, a helper of the same layer) stays part of that span.  Spans live
in preallocated columns -- site, start, end, parent span and request
seqno -- and are reduced once, after the workload has finished.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.registry import SCHEDULER_CLASSES
from repro.core.request import Request
from repro.core.selection import SelectionIndex
from repro.estimation import CostEstimator
from repro.fleet import Fleet
from repro.fleet.health import HealthMonitor
from repro.fleet.metrics import FleetCollector
from repro.fleet.router import Router
from repro.metrics import MetricsCollector
from repro.obs.audit import FairnessAuditor
from repro.obs.registry import Counter, Gauge, MetricsRegistry, Timer
from repro.obs.session import TraceSession, current_session
from repro.obs.tracer import Tracer
from repro.simulator import GPSReference, Simulation, ThreadPoolServer
from repro.simulator.sources import Source
from repro.workloads import azure, build, synthetic
from repro.workloads import trace as traces

__all__ = ["LAYERS", "SpanRecorder", "install", "layer_metrics", "layer_self_times"]

#: Layer of a module, by the longest matching prefix of its name.
LAYERS: Dict[str, str] = {
    "repro.workloads": "workloads",
    "repro.simulator.clock": "clock",
    "repro.simulator.events": "clock",
    "repro.simulator.server": "server",
    "repro.simulator.sources": "sources",
    "repro.simulator.gps": "gps",
    "repro.core": "core",
    "repro.estimation": "estimation",
    "repro.metrics": "metrics",
    "repro.fleet.metrics": "metrics",
    "repro.fleet": "fleet",
    "repro.obs": "obs",
}

_SCHEDULER_METHODS = ("enqueue", "dequeue", "dequeue_batch", "complete", "refresh", "cancel")
_TRACER_METHODS = (
    "emit", "enqueue", "select", "dispatch", "complete", "vt_update", "cancel",
    "fault", "invariant", "estimate", "route", "audit",
)
#: Workload functions: those that build populations and traces, and
#: those that transform a built trace.
_GENERATE = (
    traces.generate_trace, build.attach_specs, azure.named_tenants,
    azure.random_tenants, azure.backlogged_variant, synthetic.fixed_cost_tenants,
    synthetic.expensive_requests_population,
)
_TRANSFORM = (
    traces.thin_trace, traces.scramble_trace, traces.rescale_trace,
    traces.merge_traces, traces.chunk_trace,
)

#: ``after(args, result, span)``: runs once per span, after the call.
After = Callable[[Tuple[Any, ...], Any, int], None]


def layer_of(module: str) -> str:
    """Layer of a module; code outside every layer is ``other``."""
    best = ""
    for prefix in LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return LAYERS[best] if best else "other"


def _owner_module(fn: Callable[..., Any]) -> str:
    target = fn.func if isinstance(fn, functools.partial) else fn
    owner = getattr(target, "__self__", None)
    if owner is not None:
        return type(owner).__module__
    return getattr(target, "__module__", None) or ""


class SpanRecorder:
    """Span columns, per-site call counts and counters of one traced run."""

    def __init__(self, capacity: int = 1 << 20) -> None:
        self.site_names: List[str] = []
        self.site_layers: List[str] = []
        self._sites: Dict[str, int] = {}
        self.calls: List[int] = []
        self.counts: Dict[str, int] = {}
        self.site_col = array("i", bytes(4 * capacity))
        self.start_col = array("d", bytes(8 * capacity))
        self.end_col = array("d", bytes(8 * capacity))
        self.parent_col = array("i", bytes(4 * capacity))
        self.seq_col = array("q", bytes(8 * capacity))
        self.cursor = 0
        #: Open spans as (span index, nesting key); the sentinel is the
        #: parent of top-level spans.
        self.stack: List[Tuple[int, Optional[str]]] = [(-1, None)]
        #: Host seconds inside top-level spans, summed as they close --
        #: kept apart from the columns so the two can be cross-checked.
        self.covered = 0.0
        self.peak_pending = 0
        self.gps_references: List[GPSReference] = []
        self.selection_indexes: List[SelectionIndex] = []
        self.fleet_counts: List[Dict[str, int]] = []
        self.health_monitors: List[HealthMonitor] = []
        self._event_meta: Dict[Any, Tuple[int, str, int]] = {}
        self.span = self._make_span()

    def site(self, name: str, layer: str) -> int:
        index = self._sites.get(name)
        if index is None:
            index = self._sites[name] = len(self.site_names)
            self.site_names.append(name)
            self.site_layers.append(layer)
            self.calls.append(0)
        return index

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _grow(self) -> None:
        """Double every column in place (the span closure holds them)."""
        extra = len(self.site_col)
        for column in (self.site_col, self.start_col, self.end_col, self.parent_col, self.seq_col):
            column.frombytes(bytes(column.itemsize * extra))

    def _make_span(self) -> Callable[..., Any]:
        stack = self.stack
        calls = self.calls
        sites, starts, ends = self.site_col, self.start_col, self.end_col
        parents, seqs = self.parent_col, self.seq_col
        recorder = self

        def span(
            site: int, key: str, seq_pos: int, after: Optional[After],
            fn: Callable[..., Any], args: Tuple[Any, ...], kwargs: Dict[str, Any],
        ) -> Any:
            """``fn(*args, **kwargs)`` as one span of ``site``, or inside
            the innermost span if that one has the same nesting key."""
            top = stack[-1][0]
            if stack[-1][1] == key:
                return fn(*args, **kwargs)
            i = recorder.cursor
            if i == len(sites):
                recorder._grow()
            recorder.cursor = i + 1
            calls[site] += 1
            sites[i] = site
            parents[i] = top
            seqs[i] = args[seq_pos].seqno if seq_pos >= 0 else -1
            stack.append((i, key))
            start = perf_counter()  # repro: ignore[RPR001] -- host timing of the bench itself
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()  # repro: ignore[RPR001] -- host timing of the bench itself
                starts[i] = start
                ends[i] = end
                stack.pop()
                if top < 0:
                    recorder.covered += end - start
            if after is not None:
                after(args, result, i)
            return result

        return span

    def wrap(
        self,
        fn: Callable[..., Any],
        site_name: str,
        layer: str,
        key: Optional[str] = None,
        seq_pos: int = -1,
        after: Optional[After] = None,
    ) -> Callable[..., Any]:
        """``fn`` with every call timed as a span of ``site_name``.
        ``key`` (default: the layer) decides nesting; ``seq_pos`` is the
        position of the request among the arguments, if there is one."""
        site = self.site(site_name, layer)
        key = layer if key is None else key
        span = self.span

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return span(site, key, seq_pos, after, fn, args, kwargs)

        return wrapper

    def event_meta(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> Tuple[int, str, int]:
        """(site, nesting key, request position) of a scheduled callback,
        cached per code object."""
        func = getattr(fn, "__func__", fn)
        func = getattr(func, "__wrapped__", func)
        code = getattr(func, "__code__", None)
        meta = self._event_meta.get(code) if code is not None else None
        if meta is None:
            layer = layer_of(_owner_module(fn))
            name = getattr(func, "__name__", type(func).__name__)
            position = next((i for i, a in enumerate(args) if isinstance(a, Request)), -1)
            meta = (self.site(f"{layer}.event.{name}", layer), layer, position)
            if code is not None:
                self._event_meta[code] = meta
        return meta

    # -- reduction -------------------------------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        n = self.cursor
        return {
            "site": np.frombuffer(self.site_col, dtype=np.int32, count=n),
            "start": np.frombuffer(self.start_col, dtype=np.float64, count=n),
            "end": np.frombuffer(self.end_col, dtype=np.float64, count=n),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32, count=n),
            "seqno": np.frombuffer(self.seq_col, dtype=np.int64, count=n),
        }

    def self_times(self) -> Dict[str, float]:
        """Host seconds per site: span time minus its child spans' time."""
        cols = self.columns()
        duration = cols["end"] - cols["start"]
        nested = cols["parent"] >= 0
        children = np.bincount(
            cols["parent"][nested], weights=duration[nested], minlength=len(duration)
        )
        own = np.bincount(
            cols["site"], weights=duration - children, minlength=len(self.site_names)
        )
        return {name: float(own[i]) for i, name in enumerate(self.site_names)}


# -- installation -------------------------------------------------------------------


def _wrap_method(
    recorder: SpanRecorder, cls: type, name: str, site: str, layer: str, **kwargs: Any
) -> None:
    if name in cls.__dict__:
        setattr(cls, name, recorder.wrap(cls.__dict__[name], site, layer, **kwargs))


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _register_instances(cls: type, register: Callable[[Any], None]) -> None:
    original = cls.__init__

    @functools.wraps(original)
    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        original(self, *args, **kwargs)
        register(self)

    cls.__init__ = __init__  # type: ignore[misc]


def _wrap_functions(
    recorder: SpanRecorder,
    modules: List[ModuleType],
    functions: Dict[int, Tuple[Callable[..., Any], str, str, Optional[After]]],
) -> None:
    """Rebind every module-level name bound to one of ``functions``
    (keyed by ``id``) to one shared wrapper."""
    wrappers = {
        ident: recorder.wrap(fn, site, layer, after=after)
        for ident, (fn, site, layer, after) in functions.items()
    }
    for module in modules:
        for name, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, name, wrapper)


def install(recorder: SpanRecorder, cells: ModuleType, reducers: Tuple[str, ...]) -> None:
    """Wrap every layer entry point for the rest of this process.
    ``reducers`` names the figure reductions in the benchmark's ``cells``
    module (``metrics.reduce`` spans)."""
    wrap = recorder.wrap
    span = recorder.span

    # clock: the loop, scheduling (which reroutes every callback through
    # the trampoline) and cancellation.
    original_run = Simulation.run

    def run(self: Simulation, *args: Any, **kwargs: Any) -> Any:
        before = self.events_processed
        try:
            return original_run(self, *args, **kwargs)
        finally:
            recorder.count("clock.events", self.events_processed - before)

    def fire(meta: Tuple[int, str, int], fn: Callable[..., Any], *args: Any) -> None:
        site, key, seq_pos = meta
        span(site, key, seq_pos, None, fn, args, {})

    def scheduling(original: Callable[..., Any]) -> Callable[..., Any]:
        def schedule(self: Simulation, when: float, fn: Callable[..., Any], *args: Any) -> Any:
            handle = original(self, when, fire, recorder.event_meta(fn, args), fn, *args)
            recorder.peak_pending = max(recorder.peak_pending, self.pending_events)
            return handle

        return schedule

    Simulation.run = wrap(run, "clock.run", "clock")  # type: ignore[method-assign]
    for name in ("at", "after"):
        setattr(Simulation, name, wrap(scheduling(getattr(Simulation, name)), "clock.schedule", "clock"))
    _wrap_method(recorder, Simulation, "cancel", "clock.cancel", "clock")

    # core
    def dequeued(args: Tuple[Any, ...], result: Any, i: int) -> None:
        if result is None:
            recorder.count("core.dequeue.empty")
        else:
            recorder.seq_col[i] = result.seqno

    done = set()
    for scheduler_cls in SCHEDULER_CLASSES.values():
        for cls in scheduler_cls.__mro__:
            if cls is object or cls in done:
                continue
            done.add(cls)
            for name in _SCHEDULER_METHODS:
                if name == "dequeue":
                    options: Dict[str, Any] = {"after": dequeued}
                elif name == "dequeue_batch":
                    options = {}
                else:
                    options = {"seq_pos": 1}
                _wrap_method(recorder, cls, name, f"core.{name}", "core", **options)
    _register_instances(SelectionIndex, recorder.selection_indexes.append)

    # estimation
    for cls in _subclasses(CostEstimator):
        for name in ("estimate", "observe"):
            _wrap_method(recorder, cls, name, f"estimation.{name}", "estimation", seq_pos=1)

    # gps
    for name in ("arrive", "advance", "service"):
        _wrap_method(recorder, GPSReference, name, f"gps.{name}", "gps")
    _register_instances(GPSReference, recorder.gps_references.append)

    # server, sources, fleet: their direct entry points (callbacks come
    # through the trampoline).  The router gets its own nesting key, so
    # routing inside Fleet.submit is a span of its own.
    _wrap_method(recorder, ThreadPoolServer, "submit", "server.submit", "server", seq_pos=1)
    for cls in _subclasses(Source):
        _wrap_method(
            recorder, cls, "on_request_complete", "sources.on_request_complete",
            "sources", seq_pos=1,
        )
    _wrap_method(recorder, Fleet, "submit", "fleet.submit", "fleet", seq_pos=1)
    for cls in _subclasses(Router):
        _wrap_method(recorder, cls, "route", "fleet.route", "fleet", key="fleet.route", seq_pos=1)
    _register_instances(Fleet, lambda fleet: recorder.fleet_counts.append(fleet.counts))
    _register_instances(HealthMonitor, recorder.health_monitors.append)

    # metrics: listeners are wrapped as they are registered.  Every
    # listener but a capacity listener takes the request first.
    def registering(original: Callable[..., Any]) -> Callable[..., Any]:
        seq_pos = -1 if original.__name__ == "on_capacity_change" else 0

        @functools.wraps(original)
        def register(self: Any, fn: Callable[..., Any]) -> None:
            layer = layer_of(_owner_module(fn))
            original(self, wrap(fn, f"{layer}.listener", layer, seq_pos=seq_pos))

        return register

    for cls, names in (
        (ThreadPoolServer, ("on_submit", "on_dispatch", "on_complete")),
        (Fleet, ("on_admit", "on_reject", "on_complete", "on_abandon", "on_capacity_change")),
    ):
        for name in names:
            setattr(cls, name, registering(cls.__dict__[name]))

    def dispatch_records(args: Tuple[Any, ...], result: Any, i: int) -> None:
        recorder.count("metrics.dispatch_records", len(result.dispatch_log))

    _wrap_method(
        recorder, MetricsCollector, "result", "metrics.result", "metrics", after=dispatch_records
    )
    _wrap_method(recorder, FleetCollector, "result", "metrics.result", "metrics")
    for name in reducers:
        setattr(cells, name, wrap(getattr(cells, name), "metrics.reduce", "metrics"))

    # obs
    for name in _TRACER_METHODS:
        _wrap_method(recorder, Tracer, name, "obs.emit", "obs")
    _wrap_method(recorder, FairnessAuditor, "on_sample", "obs.audit", "obs")
    for cls, names in (
        (MetricsRegistry, ("counter", "gauge", "timer")),
        (Counter, ("inc",)),
        (Gauge, ("set",)),
        (Timer, ("start", "stop")),
    ):
        for name in names:
            _wrap_method(recorder, cls, name, "obs.registry", "obs")

    def exported(args: Tuple[Any, ...], result: Any, i: int) -> None:
        tracer = args[1]
        recorder.count("obs.events", len(tracer.events) + tracer.dropped_events)

    _wrap_method(recorder, TraceSession, "export_run", "obs.export", "obs", after=exported)

    # workloads, and the session lookup, at every name they are bound to
    def generated(args: Tuple[Any, ...], result: Any, i: int) -> None:
        recorder.count("workloads.records", len(result))

    def thinned(args: Tuple[Any, ...], result: Any, i: int) -> None:
        recorder.count("workloads.thinned", len(args[0]) - len(result))

    functions: Dict[int, Tuple[Callable[..., Any], str, str, Optional[After]]] = {
        id(current_session): (current_session, "obs.session", "obs", None),
    }
    for fn in _GENERATE:
        after_fn = generated if fn is traces.generate_trace else None
        functions[id(fn)] = (fn, "workloads.generate", "workloads", after_fn)
    for fn in _TRANSFORM:
        after_fn = thinned if fn is traces.thin_trace else None
        functions[id(fn)] = (fn, "workloads.transform", "workloads", after_fn)
    modules = [
        module for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]
    _wrap_functions(recorder, modules + [cells], functions)


# -- metrics ----------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    """A ratio that reads 0 when its layer saw no work."""
    return numerator / denominator if denominator else 0.0


def layer_self_times(recorder: SpanRecorder) -> Dict[str, float]:
    """Host seconds of self time per layer."""
    totals: Dict[str, float] = {}
    for own, layer in zip(recorder.self_times().values(), recorder.site_layers):
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def _source_submits(recorder: SpanRecorder) -> int:
    """Submit spans (server or fleet) whose parent span is a sources span:
    the requests the workload's sources handed to the system."""
    cols = recorder.columns()
    submit_sites = [
        recorder.site_names.index(name)
        for name in ("server.submit", "fleet.submit")
        if name in recorder.site_names
    ]
    parents = cols["parent"][np.isin(cols["site"], submit_sites)]
    parents = parents[parents >= 0]
    is_sources = np.array([layer == "sources" for layer in recorder.site_layers])
    return int(is_sources[cols["site"][parents]].sum())


def layer_metrics(recorder: SpanRecorder, wall: float, completed: int) -> Dict[str, float]:
    """The per-layer metrics of one traced run (``bench.trace_overhead_x``
    needs the untraced runs and is added by the caller)."""
    own = recorder.self_times()
    by_layer = layer_self_times(recorder)
    calls = dict(zip(recorder.site_names, recorder.calls))
    counts = recorder.counts

    def calls_of(*sites: str) -> int:
        return sum(calls.get(site, 0) for site in sites)

    def fleet_count(name: str) -> int:
        return sum(c.get(name, 0) for c in recorder.fleet_counts)

    records = counts.get("workloads.records", 0)
    events = counts.get("clock.events", 0)
    estimation_calls = calls_of("estimation.estimate", "estimation.observe")
    index_stats = [index.stats() for index in recorder.selection_indexes]
    metrics: Dict[str, float] = {
        "workloads.generate_s": own.get("workloads.generate", 0.0),
        "workloads.transform_s": own.get("workloads.transform", 0.0),
        "workloads.records": records,
        "workloads.kept_frac": _ratio(records - counts.get("workloads.thinned", 0), records),
        "clock.self_s": by_layer.get("clock", 0.0),
        "clock.events": events,
        "clock.events_per_request": _ratio(events, completed),
        "clock.peak_pending": recorder.peak_pending,
        "clock.cancel_frac": _ratio(calls_of("clock.cancel"), calls_of("clock.schedule")),
        "server.self_s": by_layer.get("server", 0.0),
        "server.finish.calls": calls_of("server.event._finish"),
        "server.refresh_ticks": calls_of("server.event._refresh_tick"),
        "sources.self_s": by_layer.get("sources", 0.0),
        "sources.submits": _source_submits(recorder),
    }
    for name in ("enqueue", "dequeue", "dequeue_batch", "complete", "refresh"):
        metrics[f"core.{name}.calls"] = calls_of(f"core.{name}")
        metrics[f"core.{name}.self_s"] = own.get(f"core.{name}", 0.0)
    sample_s = own.get("metrics.event._sample", 0.0)
    metrics.update({
        "core.cancel.calls": calls_of("core.cancel"),
        "core.dequeue.empty_frac": _ratio(
            counts.get("core.dequeue.empty", 0), calls_of("core.dequeue")
        ),
        "core.index.stale_pop_frac": _ratio(
            sum(s["stale_pops"] for s in index_stats), sum(s["pushes"] for s in index_stats)
        ),
        "estimation.calls": estimation_calls,
        "estimation.self_s": by_layer.get("estimation", 0.0),
        "estimation.calls_per_request": _ratio(estimation_calls, completed),
        "gps.arrive.calls": calls_of("gps.arrive"),
        "gps.advance.calls": calls_of("gps.advance"),
        "gps.service.calls": calls_of("gps.service"),
        "gps.self_s": by_layer.get("gps", 0.0),
        "gps.purges": sum(gps.purges for gps in recorder.gps_references),
        "metrics.listener.self_s": own.get("metrics.listener", 0.0),
        "metrics.sample.calls": calls_of("metrics.event._sample"),
        "metrics.sample.self_s": sample_s,
        # Every sample asks the GPS reference for each tenant's service.
        "metrics.sample.us_per_tenant": 1e6 * _ratio(sample_s, calls_of("gps.service")),
        "metrics.result_s": own.get("metrics.result", 0.0),
        "metrics.reduce_s": own.get("metrics.reduce", 0.0),
        "metrics.dispatch_records": counts.get("metrics.dispatch_records", 0),
        "fleet.self_s": by_layer.get("fleet", 0.0),
        "fleet.route.calls": calls_of("fleet.route"),
        # Every health tick probes each server of its fleet.
        "fleet.health.probes": sum(monitor.probes for monitor in recorder.health_monitors),
        "fleet.failover_retries": fleet_count("failover_retries"),
        "fleet.completed_frac": _ratio(fleet_count("completed"), fleet_count("admitted")),
        "obs.self_s": by_layer.get("obs", 0.0),
        "obs.events": counts.get("obs.events", 0),
        "obs.export_s": own.get("obs.export", 0.0),
        "bench.spans": recorder.cursor,
        "bench.unattributed_frac": _ratio(wall - recorder.covered, wall),
    })
    return metrics
