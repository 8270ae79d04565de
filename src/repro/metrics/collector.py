"""Metrics collector: hooks a server and samples everything the paper plots.

One collector per simulation run.  It

* mirrors every arrival into a fluid :class:`~repro.simulator.gps.GPSReference`
  of rate ``N * r`` (the paper's reference system, §6);
* samples cumulative per-tenant service (actual and GPS) every
  ``sample_interval`` seconds (paper: 100 ms), reading every tenant's
  actual service from one scan of the server's workers;
* records per-request latencies at completion;
* records the dispatch log -- ``(thread, tenant, api, cost, start, end)``
  -- from which the thread-occupancy plots (Figures 8b/9b/11b) are
  regenerated;
* samples the Gini index of interval service across active tenants.

Everything lands in one store, a
:class:`~repro.metrics.store.MetricsPartial` that keeps every value
(DESIGN.md §13), and ``result()`` reads it back as a
:class:`RunMetrics`.

The hot path stays one list append: a completion appends its latency to
the tenant's list, a dispatch appends its record to the log.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..core.request import Request
from ..units import Cost, Duration, Rate, Scalar, SimTime
from ..simulator.gps import GPSReference
from ..simulator.server import ThreadPoolServer
from .gini import gini_index
from .latency import LatencyStats, latency_stats
from .service import ServiceSeries, lag_std
from .store import MetricsPartial

__all__ = [
    "DispatchRecord",
    "MetricsCollector",
    "RunMetrics",
    "validate_sampling",
]


class DispatchRecord(NamedTuple):
    """One executed request in the occupancy log (an immutable tuple:
    cheaper to build per dispatch than a frozen dataclass)."""

    thread_id: int
    tenant_id: str
    api: str
    cost: Cost
    start: SimTime
    end: SimTime


def validate_sampling(sample_interval: Duration, warmup: Duration) -> None:
    """Reject sampling settings under which a collector would silently
    record nothing (a NaN warmup fails every ``t >= warmup`` test, an
    infinite interval never samples) or fail later in the event loop."""
    if not (math.isfinite(sample_interval) and sample_interval > 0):
        raise ValueError(
            f"sample_interval must be positive and finite, got {sample_interval}"
        )
    if not (math.isfinite(warmup) and warmup >= 0):
        raise ValueError(f"warmup must be finite and >= 0, got {warmup}")


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
    """

    def __init__(
        self,
        server: ThreadPoolServer,
        sample_interval: Duration = 0.1,
        record_dispatches: bool = True,
        warmup: Duration = 0.0,
    ) -> None:
        validate_sampling(sample_interval, warmup)
        self._server = server
        self._sim = server.sim
        self._interval: Duration = float(sample_interval)
        self._warmup: Duration = float(warmup)
        self._gps = GPSReference(server.num_threads * server.rate)
        self._partial = MetricsPartial(self._interval)
        # The hot-path listeners append straight into the store.
        self._latencies = self._partial.latencies
        self._dispatch_log = self._partial.dispatch_log
        self._seen_tenants: set[str] = set()
        self._previous_service: Dict[str, Cost] = {}
        self._sample_index = 0
        self._observed_samples = 0
        self._trace = None
        self._auditor = None
        server.on_submit(self._on_submit)
        if record_dispatches:
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

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer`; the collector contributes
        sampling counters to its registry."""
        self._trace = (
            tracer if tracer is not None and tracer.enabled else None
        )

    def attach_auditor(self, auditor) -> None:
        """Attach a :class:`repro.obs.audit.FairnessAuditor`; it receives
        every periodic per-tenant (actual, GPS) service sample --
        warmup-unfiltered -- through ``on_sample``."""
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
        start = request.dispatch_time
        self._dispatch_log.append(
            DispatchRecord(
                request.thread_id,
                request.tenant_id,
                request.api,
                request.cost,
                start,
                start + request.cost / self._server.rate,
            )
        )

    def _on_complete(self, request: Request) -> None:
        if request.completion_time >= self._warmup:
            self._latencies.setdefault(request.tenant_id, []).append(
                request.latency
            )

    # -- sampling ----------------------------------------------------------------

    def _sample(self) -> None:
        now = self._sim.now
        self._gps.advance(now)
        # One scan of the workers for every tenant (DESIGN.md §13).
        actual = self._server.service_snapshot(self._seen_tenants)
        reference = self._gps.service
        gps = {tenant: reference(tenant) for tenant in actual}
        if self._auditor is not None:
            self._auditor.on_sample(now, actual, gps)
        partial = self._partial
        if now >= self._warmup:
            if self._observed_samples == 0 and self._previous_service:
                # First post-warmup sample: the previous (pre-warmup)
                # sample anchors service_rate differencing.
                partial.series.baselines = dict(self._previous_service)
            gini = self._interval_gini(actual)
            partial.series.observe(now, actual, gps)
            if gini is not None:
                partial.gini.append((now, gini))
            self._observed_samples += 1
        elif self._trace is not None:
            self._trace.registry.counter("collector.warmup_samples_skipped").inc()
        if self._trace is not None:
            self._trace.registry.counter("collector.samples").inc()
        self._previous_service = actual
        self._sample_index += 1
        self._sim.at(
            self._epoch + (self._sample_index + 1) * self._interval,
            self._sample,
        )

    def _interval_gini(self, actual: Dict[str, Cost]) -> Optional[Scalar]:
        """Gini index of weight-normalized interval service across the
        currently active tenants; None when no tenant is active."""
        previous = self._previous_service
        deltas = []
        for tenant_id, state in self._server.scheduler.tenants().items():
            if state.active:
                delta = actual.get(tenant_id, 0.0) - previous.get(tenant_id, 0.0)
                # Same value as max(0.0, delta), without the call.
                deltas.append((delta if delta > 0.0 else 0.0) / state.weight)
        if not deltas:
            return None
        return gini_index(deltas)

    # -- results ------------------------------------------------------------------

    def result(self) -> "RunMetrics":
        """Freeze collected data (call after the simulation finishes)."""
        return RunMetrics(self._partial)


class RunMetrics:
    """Everything measured during one scheduler run, read from its
    :class:`~repro.metrics.store.MetricsPartial` store.  Every number
    is computed from the full per-run values (DESIGN.md §13)."""

    def __init__(self, partial: MetricsPartial) -> None:
        #: The underlying store.
        self.partial = partial
        self.sample_interval = partial.sample_interval
        self.gini_times = np.asarray([t for t, _ in partial.gini])
        self.gini_values = np.asarray([v for _, v in partial.gini])
        self.dispatch_log: List[DispatchRecord] = partial.dispatch_log

    # -- service -------------------------------------------------------------

    def tenants(self) -> List[str]:
        return self.partial.series.tenants()

    def service_series(self, tenant_id: str) -> ServiceSeries:
        return self.partial.series.service_series(tenant_id)

    def lag_sigma(
        self, tenant_id: str, reference_rate: Optional[Rate] = None
    ) -> float:
        """sigma of service lag for one tenant (seconds if rate given)."""
        return lag_std(
            np.array(self.partial.series.lags.get(tenant_id, ())), reference_rate
        )

    def lag_sigmas(
        self,
        tenants: Optional[Sequence[str]] = None,
        reference_rate: Optional[Rate] = None,
    ) -> Dict[str, float]:
        """sigma(lag) per tenant -- the CDF input of Figures 10/12."""
        names = list(tenants) if tenants is not None else self.tenants()
        return {t: self.lag_sigma(t, reference_rate) for t in names}

    # -- latency --------------------------------------------------------------

    @property
    def latencies(self) -> Dict[str, List[Duration]]:
        """Every post-warmup latency per tenant, in completion order."""
        return self.partial.latencies

    def latency_stats(self, tenant_id: str) -> LatencyStats:
        return latency_stats(self.partial.latencies.get(tenant_id, []))

    def latency_p99(self, tenant_id: str) -> Duration:
        return self.latency_stats(tenant_id).p99

    def completed(self, tenant_id: Optional[str] = None) -> int:
        """Post-warmup completions of one tenant, or of every tenant."""
        latencies = self.partial.latencies
        if tenant_id is not None:
            return len(latencies.get(tenant_id, ()))
        return sum(len(values) for values in latencies.values())

    # -- occupancy ------------------------------------------------------------

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
        # Python lists accumulate the same IEEE sums as float64 arrays,
        # without a numpy scalar round trip per record.
        sums = [0.0] * num_threads
        counts = [0.0] * num_threads
        for thread_id, _, _, cost, start, end in self.dispatch_log:
            duration = end - start
            sums[thread_id] += np.log10(max(cost, 1e-12)) * duration
            counts[thread_id] += duration
        with np.errstate(invalid="ignore"):
            means = np.array(sums) / np.array(counts)
        return means
