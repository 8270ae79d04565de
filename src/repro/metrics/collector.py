"""Metrics collector: hooks a server and samples everything the paper plots.

One collector per simulation run.  It

* mirrors every arrival into a fluid :class:`~repro.simulator.gps.GPSReference`
  of rate ``N * r`` (the paper's reference system, §6);
* samples cumulative per-tenant service (actual and GPS) every
  ``sample_interval`` seconds (paper: 100 ms);
* records per-request latencies at completion;
* records the dispatch log -- ``(thread, tenant, api, cost, start, end)``
  -- from which the thread-occupancy plots (Figures 8b/9b/11b) are
  regenerated;
* samples the Gini index of interval service across active tenants.

Collection modes (DESIGN.md §13)
--------------------------------
``mode="exact"`` (the default) keeps every sample: a list entry per
completed request and per dispatch.  Memory grows linearly with run
length, which caps runs well short of the 10M-request scale target.

``mode="streaming"`` swaps the per-request lists for bounded sketches
from :mod:`repro.metrics.streaming`: a mergeable quantile digest plus
Welford moments per tenant for latencies, Welford moments per tenant for
service lag, a decimating bounded service curve, a seeded reservoir for
Gini samples, and a ring buffer for the dispatch log.  ``result()`` then
returns a :class:`StreamingRunMetrics` with the same query surface
(latency percentiles within the sketch error bound -- benchmarked <1%
at p50/p99 -- lag sigma exact up to float round-off).  ``partial()``
exposes the picklable sketch state so :mod:`repro.parallel` can merge
windowed partials from a time-sharded run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.request import Request
from ..errors import ConfigurationError
from ..units import Cost, Duration, Rate, Scalar, SimTime
from ..simulator.gps import GPSReference
from ..simulator.server import ThreadPoolServer
from .gini import gini_index
from .latency import LatencyStats, latency_stats
from .service import ServiceSeries, ServiceTracker
from .streaming import MetricsPartial

__all__ = [
    "DispatchRecord",
    "MetricsCollector",
    "RunMetrics",
    "StreamingRunMetrics",
    "COLLECTOR_MODES",
]

COLLECTOR_MODES = ("exact", "streaming")


@dataclass(frozen=True)
class DispatchRecord:
    """One executed request in the occupancy log."""

    thread_id: int
    tenant_id: str
    api: str
    cost: Cost
    start: SimTime
    end: SimTime


class MetricsCollector:
    """Attach to a server *before* starting sources; read results after.

    Warmup semantics
    ----------------
    ``warmup`` (seconds) excludes the estimator-settling transient from
    every *statistic* while keeping raw logs complete:

    * **latencies** -- a request contributes only if it *completes* at
      ``t >= warmup`` (requests in flight across the boundary count,
      since their tail lies in the measured window);
    * **service / GPS samples** and **Gini samples** -- the periodic
      sampler only records at sample times ``t >= warmup`` (the GPS
      reference itself still integrates from t=0, so post-warmup lag
      values are exact, not restarted).  The last pre-warmup sample is
      retained as the series *baseline* so the first post-warmup
      ``service_rate`` entry measures one interval of work, not the
      whole pre-warmup cumulative;
    * **dispatch log** -- never warmup-filtered: the occupancy figures
      (8b/9b/11b) and Chrome-trace exports need the full timeline.

    ``record_dispatches=False`` drops the dispatch log entirely (the
    occupancy plots become unavailable but long runs save the memory).

    ``mode="streaming"`` collects into bounded sketches instead of
    per-request lists -- see the module docstring.  The sketch knobs
    (``compression``, ``series_capacity``, ``reservoir_capacity``,
    ``dispatch_capacity``) are ignored in exact mode.
    """

    def __init__(
        self,
        server: ThreadPoolServer,
        sample_interval: Duration = 0.1,
        record_dispatches: bool = True,
        warmup: Duration = 0.0,
        mode: str = "exact",
        seed: int = 0,
        compression: int = 200,
        series_capacity: int = 1024,
        reservoir_capacity: int = 4096,
        dispatch_capacity: int = 65536,
    ) -> None:
        if sample_interval <= 0:
            raise ValueError(f"sample_interval must be positive, got {sample_interval}")
        if mode not in COLLECTOR_MODES:
            raise ConfigurationError(
                f"mode must be one of {COLLECTOR_MODES}, got {mode!r}"
            )
        self._server = server
        self._sim = server.sim
        self._interval: Duration = float(sample_interval)
        self._warmup: Duration = float(warmup)
        self._mode = mode
        self._tracker = ServiceTracker()
        self._gps = GPSReference(server.num_threads * server.rate)
        self._latencies: Dict[str, List[Duration]] = {}
        self._dispatch_log: List[DispatchRecord] = []
        self._record_dispatches = bool(record_dispatches)
        self._gini_times: List[SimTime] = []
        self._gini_values: List[Scalar] = []
        self._seen_tenants: set[str] = set()
        self._previous_service: Dict[str, Cost] = {}
        self._sample_index = 0
        self._observed_samples = 0
        self._trace = None
        self._auditor = None
        self._partial: Optional[MetricsPartial] = None
        if mode == "streaming":
            self._partial = MetricsPartial(
                sample_interval=self._interval,
                seed=seed,
                compression=compression,
                series_capacity=series_capacity,
                reservoir_capacity=reservoir_capacity,
                dispatch_capacity=dispatch_capacity,
            )
        server.on_submit(self._on_submit)
        server.on_dispatch(self._on_dispatch)
        server.on_complete(self._on_complete)
        # Samples sit on the absolute grid epoch + k * interval
        # (multiplication, not accumulation) so no float drift pushes
        # the final sample past the experiment's `until` horizon.  The
        # epoch anchors the grid at attach time: `at(self._interval)`
        # read a duration as an absolute timestamp, so attaching a
        # collector to a simulation already past t=interval scheduled
        # its first sample in the past and raised SimulationError.
        self._epoch: SimTime = self._sim.now
        self._sim.at(self._epoch + self._interval, self._sample)

    @property
    def mode(self) -> str:
        return self._mode

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer`; the collector contributes
        sampling counters (and, in streaming mode, sketch-size gauges)
        to its registry."""
        self._trace = (
            tracer if tracer is not None and tracer.enabled else None
        )

    def attach_auditor(self, auditor) -> None:
        """Attach a :class:`repro.obs.audit.FairnessAuditor`; it receives
        every periodic per-tenant (actual, GPS) service sample --
        warmup-unfiltered, in both exact and streaming modes -- through
        ``on_sample``."""
        self._auditor = auditor

    # -- listeners ------------------------------------------------------------

    def _on_submit(self, request: Request) -> None:
        self._seen_tenants.add(request.tenant_id)
        self._gps.arrive(
            request.tenant_id, request.cost, self._sim.now, request.weight
        )

    def _on_dispatch(self, request: Request) -> None:
        # Record at dispatch (with the deterministic simulated end time)
        # rather than completion, so requests still running when the
        # simulation stops -- e.g. multi-second expensive requests --
        # appear in the occupancy log.
        if self._record_dispatches:
            record = DispatchRecord(
                thread_id=request.thread_id,
                tenant_id=request.tenant_id,
                api=request.api,
                cost=request.cost,
                start=request.dispatch_time,
                end=request.dispatch_time + request.cost / self._server.rate,
            )
            if self._partial is not None:
                self._partial.observe_dispatch(record)
            else:
                self._dispatch_log.append(record)

    def _on_complete(self, request: Request) -> None:
        if request.completion_time >= self._warmup:
            if self._partial is not None:
                self._partial.observe_latency(
                    request.tenant_id, request.latency
                )
            else:
                self._latencies.setdefault(request.tenant_id, []).append(
                    request.latency
                )

    # -- sampling ----------------------------------------------------------------

    def _sample(self) -> None:
        now = self._sim.now
        actual: Dict[str, Cost] = {}
        gps: Dict[str, Cost] = {}
        self._gps.advance(now)
        for tenant in self._seen_tenants:
            actual[tenant] = self._server.service_received(tenant)
            gps[tenant] = self._gps.service(tenant)
        if self._auditor is not None:
            self._auditor.on_sample(now, actual, gps)
        if now >= self._warmup:
            if self._observed_samples == 0 and self._previous_service:
                # First post-warmup sample: the previous (pre-warmup)
                # sample anchors service_rate differencing.
                if self._partial is not None:
                    self._partial.baselines = dict(self._previous_service)
                else:
                    self._tracker.set_baselines(self._previous_service)
            gini = self._interval_gini(actual)
            if self._partial is not None:
                self._partial.observe_sample(now, actual, gps)
                if gini is not None:
                    self._partial.observe_gini(now, gini)
            else:
                self._tracker.observe(now, actual, gps)
                if gini is not None:
                    self._gini_times.append(now)
                    self._gini_values.append(gini)
            self._observed_samples += 1
        elif self._trace is not None:
            self._trace.registry.counter("collector.warmup_samples_skipped").inc()
        if self._trace is not None:
            self._trace.registry.counter("collector.samples").inc()
            if self._partial is not None:
                for name, value in self._partial.sketch_sizes().items():
                    self._trace.registry.gauge(f"collector.sketch.{name}").set(
                        value
                    )
        self._previous_service = actual
        self._sample_index += 1
        self._sim.at(
            self._epoch + (self._sample_index + 1) * self._interval,
            self._sample,
        )

    def _interval_gini(self, actual: Dict[str, Cost]) -> Optional[Scalar]:
        """Gini index of weight-normalized interval service across the
        currently active tenants; None when no tenant is active."""
        scheduler = self._server.scheduler
        deltas = []
        for tenant_id, state in scheduler.tenants().items():
            if not state.active:
                continue
            delta = actual.get(tenant_id, 0.0) - self._previous_service.get(
                tenant_id, 0.0
            )
            deltas.append(max(0.0, delta) / state.weight)
        if not deltas:
            return None
        return gini_index(deltas)

    # -- results ------------------------------------------------------------------

    def partial(self) -> MetricsPartial:
        """The run's picklable sketch state (streaming mode only) --
        the mergeable unit of the time-sharded parallel runner."""
        if self._partial is None:
            raise ConfigurationError(
                "partial() requires MetricsCollector(mode='streaming'); "
                "exact mode has no mergeable sketch state"
            )
        return self._partial

    def result(self) -> "RunMetrics":
        """Freeze collected data (call after the simulation finishes)."""
        if self._partial is not None:
            return StreamingRunMetrics(self._partial)
        return RunMetrics(
            tracker=self._tracker,
            latencies={k: list(v) for k, v in self._latencies.items()},
            dispatch_log=list(self._dispatch_log),
            gini_times=np.asarray(self._gini_times),
            gini_values=np.asarray(self._gini_values),
            sample_interval=self._interval,
        )


class _DispatchLogMetrics:
    """Occupancy analyses shared by the exact and streaming results.

    Subclasses provide ``dispatch_log`` (a time-ordered sequence of
    :class:`DispatchRecord`).
    """

    dispatch_log: Sequence[DispatchRecord]

    def write_chrome_trace(self, path, trace_events=(), process_name="repro"):
        """Export the dispatch log as a Chrome/Perfetto trace -- the
        interactive version of the occupancy figures (8b/9b/11b).
        Requires the run to have kept ``record_dispatches=True``."""
        from ..obs.exporters import write_chrome_trace

        return write_chrome_trace(
            self.dispatch_log,
            path,
            trace_events=trace_events,
            process_name=process_name,
        )

    def occupancy_matrix(
        self, t_start: SimTime, t_end: SimTime, resolution: Duration, num_threads: int
    ) -> np.ndarray:
        """Request-cost-per-thread-per-time grid for the Figure 8b/9b/11b
        occupancy plots: entry ``[i, k]`` is the cost of the request
        running on thread ``i`` during time bin ``k`` (0 when idle).

        When two dispatches on the same thread share a boundary bin, the
        record covering the larger fraction of the bin wins (ties go to
        the later start) -- the bin shows the request that actually
        occupied most of it, not whichever record iterated last.
        """
        bins = max(1, int(round((t_end - t_start) / resolution)))
        grid = np.zeros((num_threads, bins))
        # Winning overlap per cell; records arrive in dispatch-time
        # order, so >= breaks exact-overlap ties toward the later start.
        best = np.zeros((num_threads, bins))
        for record in self.dispatch_log:
            if record.end <= t_start or record.start >= t_end:
                continue
            first = max(0, int((record.start - t_start) / resolution))
            last = min(bins, int(np.ceil((record.end - t_start) / resolution)))
            if last <= first:
                continue
            edges = t_start + np.arange(first, last + 1) * resolution
            overlap = np.minimum(record.end, edges[1:]) - np.maximum(
                record.start, edges[:-1]
            )
            row = slice(first, last)
            wins = overlap >= best[record.thread_id, row]
            grid[record.thread_id, row] = np.where(
                wins, record.cost, grid[record.thread_id, row]
            )
            best[record.thread_id, row] = np.maximum(
                best[record.thread_id, row], overlap
            )
        return grid

    def thread_cost_partition(self, num_threads: int) -> np.ndarray:
        """Mean log10 cost of requests executed per thread.

        Under 2DFQ this is decreasing in thread index (low-index threads
        run expensive requests); under WFQ/WF2Q it is flat -- the
        quantitative version of the occupancy figures.
        """
        sums = np.zeros(num_threads)
        counts = np.zeros(num_threads)
        for record in self.dispatch_log:
            duration = record.end - record.start
            sums[record.thread_id] += np.log10(max(record.cost, 1e-12)) * duration
            counts[record.thread_id] += duration
        with np.errstate(invalid="ignore"):
            means = sums / counts
        return means


class RunMetrics(_DispatchLogMetrics):
    """Everything measured during one scheduler run (exact mode)."""

    def __init__(
        self,
        tracker: ServiceTracker,
        latencies: Dict[str, List[Duration]],
        dispatch_log: List[DispatchRecord],
        gini_times: np.ndarray,
        gini_values: np.ndarray,
        sample_interval: Duration,
    ) -> None:
        self._tracker = tracker
        self.latencies = latencies
        self.dispatch_log = dispatch_log
        self.gini_times = gini_times
        self.gini_values = gini_values
        self.sample_interval = sample_interval

    # -- service -------------------------------------------------------------

    def tenants(self) -> List[str]:
        return self._tracker.tenants()

    def service_series(self, tenant_id: str) -> ServiceSeries:
        return self._tracker.series(tenant_id)

    def lag_sigma(
        self, tenant_id: str, reference_rate: Optional[Rate] = None
    ) -> float:
        """sigma of service lag for one tenant (seconds if rate given)."""
        return self.service_series(tenant_id).lag_sigma(reference_rate)

    def lag_sigmas(
        self,
        tenants: Optional[Sequence[str]] = None,
        reference_rate: Optional[Rate] = None,
    ) -> Dict[str, float]:
        """sigma(lag) per tenant -- the CDF input of Figures 10/12."""
        names = list(tenants) if tenants is not None else self.tenants()
        return {t: self.lag_sigma(t, reference_rate) for t in names}

    # -- latency --------------------------------------------------------------

    def latency_stats(self, tenant_id: str) -> LatencyStats:
        return latency_stats(self.latencies.get(tenant_id, []))

    def latency_p99(self, tenant_id: str) -> Duration:
        return self.latency_stats(tenant_id).p99


class StreamingRunMetrics(_DispatchLogMetrics):
    """Run metrics backed by bounded sketches (streaming mode).

    Same query surface as :class:`RunMetrics`, different fidelity
    contract (DESIGN.md §13):

    * latency percentiles come from the per-tenant quantile digest
      (<1% p50/p99 error by the benchmark gate); count/mean/max exact;
    * ``lag_sigma`` comes from Welford moments over every sample --
      exact up to float round-off, *not* sketched;
    * ``service_series`` is the decimated bounded curve: correct shape,
      possibly coarser than ``sample_interval``;
    * ``gini_values``/``gini_times`` are the reservoir sample -- exact
      (all samples, time-ordered) while the run fits the reservoir;
      ``gini_mean`` is exact always;
    * ``dispatch_log`` holds the most recent ``dispatch_capacity``
      records.
    """

    def __init__(self, partial: MetricsPartial) -> None:
        #: The underlying mergeable sketch state; time-sharded runs
        #: merge these across shards before wrapping the result.
        self.partial = partial
        self.sample_interval = partial.sample_interval
        items = partial.gini.items()
        self.gini_times = np.asarray([t for t, _ in items])
        self.gini_values = np.asarray([v for _, v in items])
        self.dispatch_log = partial.dispatches.items()

    # -- service -------------------------------------------------------------

    def tenants(self) -> List[str]:
        return sorted(set(self.partial.series.actual) | set(self.partial.lag_moments))

    def service_series(self, tenant_id: str) -> ServiceSeries:
        times, actual, gps = self.partial.series.columns(tenant_id)
        return ServiceSeries(
            tenant_id=tenant_id,
            times=times,
            actual=actual,
            gps=gps,
            baseline=self.partial.baselines.get(tenant_id, 0.0),
        )

    def lag_sigma(
        self, tenant_id: str, reference_rate: Optional[Rate] = None
    ) -> float:
        """sigma of service lag from the full-resolution Welford
        moments (exact up to float round-off)."""
        moments = self.partial.lag_moments.get(tenant_id)
        if moments is None or moments.count == 0:
            return 0.0
        sigma = moments.std
        if reference_rate is not None:
            sigma /= reference_rate
        return float(sigma)

    def lag_sigmas(
        self,
        tenants: Optional[Sequence[str]] = None,
        reference_rate: Optional[Rate] = None,
    ) -> Dict[str, float]:
        names = list(tenants) if tenants is not None else self.tenants()
        return {t: self.lag_sigma(t, reference_rate) for t in names}

    # -- latency --------------------------------------------------------------

    def latency_stats(self, tenant_id: str) -> LatencyStats:
        digest = self.partial.latency_digests.get(tenant_id)
        moments = self.partial.latency_moments.get(tenant_id)
        if digest is None or moments is None or digest.empty:
            return latency_stats([])
        return LatencyStats(
            count=int(moments.count),
            mean=float(moments.mean),
            p1=float(digest.quantile(0.01)),
            p50=float(digest.quantile(0.50)),
            p99=float(digest.quantile(0.99)),
            maximum=float(moments.maximum),
        )

    def latency_p99(self, tenant_id: str) -> Duration:
        return self.latency_stats(tenant_id).p99

    # -- streaming extras ------------------------------------------------------

    @property
    def gini_mean(self) -> float:
        """Exact mean of every Gini sample (not just the reservoir)."""
        return float(self.partial.gini_moments.mean)

    def sketch_sizes(self) -> Dict[str, int]:
        """Stored-point counts per sketch family (memory audit)."""
        return self.partial.sketch_sizes()
