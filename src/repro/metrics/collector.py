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

The hot path is appends only: a submit appends its
``(tenant, cost, now, weight)`` arrival to a pending list, a completion
appends its latency to the tenant's list, a dispatch appends its record
to the log.  The arithmetic runs in batches that perform the same float
operations in the same order, so every value keeps its bits: each
sample first replays the pending arrivals into the GPS reference
(:meth:`~repro.simulator.gps.GPSReference.replay`), and each sample's
interval-service vector is buffered and folded into its Gini index
once, by ``result()`` (:func:`~repro.metrics.gini.gini_rows`).
"""

from __future__ import annotations

import math
from array import array
from operator import itemgetter, sub
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.request import Request
from ..units import Cost, Duration, Rate, SimTime
from ..simulator.gps import Arrival, GPSReference
from ..simulator.server import ThreadPoolServer
from .gini import gini_rows
from .latency import LatencyStats, latency_stats
from .service import ServiceSeries, _check_reference_rate, lag_std
from .store import MetricsPartial

if TYPE_CHECKING:  # import cycle: the fleet collector subclasses this one
    from ..fleet.fleet import Fleet

__all__ = [
    "DispatchRecord",
    "MetricsCollector",
    "RunMetrics",
    "dispatch_columns",
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


# Builds a DispatchRecord without the NamedTuple's Python-level __new__.
_new_record = tuple.__new__


def dispatch_columns(
    log: Sequence[DispatchRecord], num_threads: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The thread ids, costs and durations (``end - start``) of a
    dispatch log as fresh arrays, in log order, for the per-thread
    ``np.bincount`` sums of the occupancy reductions: bincount adds in
    input order, so each sum has the bits of a per-record loop.  Each
    column is read straight into its array, so the log's size in
    temporaries is three float64 columns.

    Raises ``ValueError`` naming the first record whose thread id lies
    outside ``range(num_threads)``: indexing would fold a negative id
    into the last thread, and ``minlength`` would silently lengthen the
    result for an id past the end."""
    n = len(log)
    threads = np.fromiter(map(itemgetter(0), log), dtype=np.intp, count=n)
    outside = (threads < 0) | (threads >= num_threads)
    if outside.any():
        index = int(np.argmax(outside))
        raise ValueError(
            f"dispatch record {index} {log[index]!r} has thread_id "
            f"{log[index][0]}, outside range(num_threads={num_threads})"
        )
    costs = np.fromiter(map(itemgetter(3), log), dtype=float, count=n)
    durations = np.fromiter(
        map(sub, map(itemgetter(5), log), map(itemgetter(4), log)),
        dtype=float,
        count=n,
    )
    return threads, costs, durations


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

    The sampler reads only the target's ``sim``, ``capacity`` and
    ``service_snapshot``; :meth:`_listen` registers the listeners, so
    :class:`~repro.fleet.metrics.FleetCollector` samples a fleet by
    overriding it (DESIGN.md §16).
    """

    def __init__(
        self,
        server: "ThreadPoolServer | Fleet",
        sample_interval: Duration = 0.1,
        record_dispatches: bool = True,
        warmup: Duration = 0.0,
    ) -> None:
        validate_sampling(sample_interval, warmup)
        self._server: Any = server
        self._sim = server.sim
        self._interval: Duration = float(sample_interval)
        self._warmup: Duration = float(warmup)
        self._gps = GPSReference(server.capacity)
        self._partial = MetricsPartial(self._interval)
        # The hot-path listeners append straight into the store.
        self._latencies = self._partial.latencies
        self._dispatch_log = self._partial.dispatch_log
        self._seen_tenants: set[str] = set()
        # Arrivals since the last replay into the GPS reference.
        self._arrivals: List[Arrival] = []
        # Interval-service vectors awaiting their Gini fold: row k is
        # _gini_values[_gini_offsets[k]:_gini_offsets[k + 1]], sampled
        # at _gini_times[k].
        self._gini_times = array("d")
        self._gini_values = array("d")
        self._gini_offsets = array("q", [0])
        self._previous_service: Dict[str, Cost] = {}
        self._sample_index = 0
        self._observed_samples = 0
        self._trace = None
        # Samples sit on the absolute grid epoch + k * interval
        # (multiplication, not accumulation) so no float drift pushes
        # the final sample past the experiment's `until` horizon.  The
        # epoch anchors the grid at attach time: `at(self._interval)`
        # read a duration as an absolute timestamp, so attaching a
        # collector to a simulation already past t=interval scheduled
        # its first sample in the past and raised SimulationError.
        self._epoch: SimTime = self._sim.now
        self._listen(server, record_dispatches)
        self._sim.at(self._epoch + self._interval, self._sample)

    def _listen(self, server: Any, record_dispatches: bool) -> None:
        """Register the hot-path listeners on the target."""
        server.on_submit(self._on_submit)
        if record_dispatches:
            server.on_dispatch(self._on_dispatch)
        server.on_complete(self._on_complete)

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer`; the collector contributes
        sampling counters to its registry and every periodic per-tenant
        (actual, GPS) service sample, warmup included, to its record."""
        self._trace = tracer

    # -- listeners ------------------------------------------------------------

    def _on_submit(self, request: Request) -> None:
        self._arrivals.append(
            (request.tenant_id, request.cost, self._sim.now, request.weight)
        )

    def _on_dispatch(self, request: Request) -> None:
        # Record at dispatch (with the deterministic simulated end time)
        # rather than completion, so requests still running when the
        # simulation stops -- e.g. multi-second expensive requests --
        # appear in the occupancy log.
        start = request.dispatch_time
        self._dispatch_log.append(
            _new_record(
                DispatchRecord,
                (
                    request.thread_id,
                    request.tenant_id,
                    request.api,
                    request.cost,
                    start,
                    start + request.cost / self._server.rate,
                ),
            )
        )

    def _on_complete(self, request: Request) -> None:
        # ``Request.latency`` without the property call: its checks
        # cannot fail here, since the warmup test implies
        # ``completion_time >= 0`` and every submit stamps a
        # non-negative ``arrival_time``.
        done = request.completion_time
        if done >= self._warmup:
            self._latencies.setdefault(request.tenant_id, []).append(
                done - request.arrival_time
            )

    # -- sampling ----------------------------------------------------------------

    def _replay_arrivals(self) -> None:
        """Feed the pending arrivals to the GPS reference, in order."""
        arrivals = self._arrivals
        if arrivals:
            self._arrivals = []
            # Added in arrival order, so the set (and the order of every
            # sample's tenants) is the one per-submit adds would build.
            self._seen_tenants.update([arrival[0] for arrival in arrivals])
            self._gps.replay(arrivals)

    def _sample(self) -> None:
        now = self._sim.now
        self._replay_arrivals()
        self._gps.advance(now)
        # One scan of the workers for every tenant (DESIGN.md §13).
        actual = self._server.service_snapshot(self._seen_tenants)
        gps = self._gps.services(actual)
        if self._trace is not None:
            self._trace.sample(now, actual, gps)
        partial = self._partial
        if now >= self._warmup:
            if self._observed_samples == 0 and self._previous_service:
                # First post-warmup sample: the previous (pre-warmup)
                # sample anchors service_rate differencing.
                partial.series.baselines = dict(self._previous_service)
            self._interval_gini(now, actual)
            partial.series.observe(now, actual, gps)
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

    def _interval_gini(self, now: SimTime, actual: Dict[str, Cost]) -> None:
        """Buffer the weight-normalized interval service of the currently
        active tenants, whose Gini index ``result()`` folds into the
        store; no row when no tenant is active."""
        previous = self._previous_service
        values = self._gini_values
        for tenant_id, state in self._server.scheduler.tenants().items():
            if state.active:
                delta = actual.get(tenant_id, 0.0) - previous.get(tenant_id, 0.0)
                # Same value as max(0.0, delta), without the call.
                values.append((delta if delta > 0.0 else 0.0) / state.weight)
        if len(values) > self._gini_offsets[-1]:
            self._gini_times.append(now)
            self._gini_offsets.append(len(values))

    def _fold_gini(self) -> None:
        """Append the buffered rows' Gini indices to the store."""
        times = self._gini_times
        if times:
            indices = gini_rows(self._gini_values, self._gini_offsets)
            self._partial.gini.extend(zip(times, indices))
            self._gini_times = array("d")
            self._gini_values = array("d")
            self._gini_offsets = array("q", [0])

    # -- results ------------------------------------------------------------------

    def result(self) -> "RunMetrics":
        """Freeze collected data (call after the simulation finishes).

        Replays the arrivals since the last sample, so a bad arrival
        (a tenant re-arriving with another weight) raises here even when
        the run ends before the next sample."""
        self._replay_arrivals()
        self._fold_gini()
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
        """sigma(lag) per tenant -- the CDF input of Figures 10/12.

        The values of :meth:`lag_sigma` per tenant, bit for bit, from
        one row-wise ``np.std`` per group of equal-length lag rows; a
        tenant without a lag row reads 0.0."""
        if reference_rate is not None:
            _check_reference_rate(reference_rate)
        names = list(tenants) if tenants is not None else self.tenants()
        lags = self.partial.series.lags
        groups: Dict[int, List[str]] = {}
        for tenant in names:
            row = lags.get(tenant)
            if row:
                groups.setdefault(len(row), []).append(tenant)
        sigmas: Dict[str, float] = {}
        for length, group in groups.items():
            matrix = np.frombuffer(
                b"".join([lags[t] for t in group]), dtype=float
            ).reshape(len(group), length)
            if reference_rate is not None:
                matrix = matrix / reference_rate
            sigmas.update(zip(group, np.std(matrix, axis=1).tolist()))
        return {t: sigmas.get(t, 0.0) for t in names}

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

    def thread_cost_partition(self, num_threads: int) -> np.ndarray:
        """Mean log10 cost of requests executed per thread.

        Under 2DFQ this is decreasing in thread index (low-index threads
        run expensive requests); under WFQ/WF2Q it is flat -- the
        quantitative version of the occupancy figures.
        """
        threads, costs, durations = dispatch_columns(self.dispatch_log, num_threads)
        # In place: log10(max(cost, 1e-12)) * duration, per record.
        weights = np.log10(np.maximum(costs, 1e-12, out=costs), out=costs)
        weights *= durations
        sums = np.bincount(threads, weights=weights, minlength=num_threads)
        counts = np.bincount(threads, weights=durations, minlength=num_threads)
        with np.errstate(invalid="ignore"):
            return sums / counts
