"""Metrics collector: attaches a run record to a server and samples
everything the paper plots.

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

The collector registers no per-request listener.  It attaches a
:class:`~repro.metrics.store.RunRecord` to the server
(``attach_record``), which writes each arrival, dispatch record and
post-warmup latency straight into the store, as plain values.  Each
sample replays the arrivals since the last one into the GPS reference
(:meth:`~repro.simulator.gps.GPSReference.replay`, bit for bit the
per-arrival state) and stores one row: the seen tenants' actual
service, the GPS reference's fluid state and the schedulers' active
flags, each built by a C-level map.  Per-tenant columns, lags and Gini
indices are folded from the rows with numpy when the store is first
read.  ``result()`` ends the collection: it cancels the next sample
and detaches the record, so nothing the simulation keeps alive refers
to the store, and a finished run is freed by reference counting
(DESIGN.md §13, *GC discipline*).
"""

from __future__ import annotations

import math
from array import array
from itertools import islice
from operator import attrgetter, sub
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..units import Duration, Rate, SimTime
from ..simulator.gps import GPSReference
from ..simulator.clock import EventHandle
from ..simulator.server import DISPATCH_FIELDS, DispatchRecord, ThreadPoolServer
from .latency import LatencyStats, latency_stats
from .service import ServiceSeries, _check_reference_rate, lag_std
from .store import DispatchLog, MetricsPartial, RunRecord

if TYPE_CHECKING:  # import cycle: the fleet collector subclasses this one
    from ..fleet.fleet import Fleet

__all__ = [
    "DispatchRecord",
    "MetricsCollector",
    "RunMetrics",
    "dispatch_columns",
    "validate_sampling",
]

_active = attrgetter("active")
_weight = attrgetter("weight")


def dispatch_columns(
    flat: Sequence[Any], num_threads: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The thread ids, costs and durations (``end - start``) of a flat
    dispatch log (:attr:`MetricsPartial.dispatch_log
    <repro.metrics.store.MetricsPartial>`) as fresh arrays, in log
    order, for the per-thread ``np.bincount`` sums of the occupancy
    reductions: bincount adds in input order, so each sum has the bits
    of a per-record loop.  Each column is read from one strided slice,
    so the log's size in temporaries is three float64 columns and a
    slice of references.

    Raises ``ValueError`` naming the first record whose thread id lies
    outside ``range(num_threads)``: indexing would fold a negative id
    into the last thread, and ``minlength`` would silently lengthen the
    result for an id past the end."""
    n = len(flat) // DISPATCH_FIELDS
    threads = np.fromiter(flat[0::DISPATCH_FIELDS], dtype=np.intp, count=n)
    outside = (threads < 0) | (threads >= num_threads)
    if outside.any():
        index = int(np.argmax(outside))
        record = DispatchLog(flat)[index]
        raise ValueError(
            f"dispatch record {index} {record!r} has thread_id "
            f"{record.thread_id}, outside range(num_threads={num_threads})"
        )
    costs = np.fromiter(flat[3::DISPATCH_FIELDS], dtype=float, count=n)
    durations = np.fromiter(
        map(sub, flat[5::DISPATCH_FIELDS], flat[4::DISPATCH_FIELDS]),
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
    ``service_snapshot``; :meth:`_attach` attaches the run record and
    :meth:`_detach` detaches it, so
    :class:`~repro.fleet.metrics.FleetCollector` samples a fleet by
    overriding them (DESIGN.md §16).

    :meth:`result` ends the collection: it cancels the pending sample
    and detaches the record, so a submit after it is not recorded and
    the simulation keeps no reference to the store.
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
        #: The seen tenants (a live view), in first-arrival order.
        self._tenants = self._gps.flow_ids()
        self._partial = MetricsPartial(self._interval)
        self._record = RunRecord(self._partial, self._warmup, record_dispatches)
        # The scheduler's tenant states, whose active flags each
        # post-warmup sample stores for its Gini row (None: no Gini).
        self._states: Optional[Dict[str, Any]] = None
        # The last sample's actual service, until the first post-warmup
        # sample files it as the baselines.
        self._previous: "array[float]" = array("d")
        # Tenants and scheduler states registered with the store so far.
        self._filed_tenants = 0
        self._filed_states = 0
        self._observed_samples = 0
        self._sample_index = 0
        self._trace = None
        # Samples sit on the absolute grid epoch + k * interval
        # (multiplication, not accumulation) so no float drift pushes
        # the final sample past the experiment's `until` horizon.  The
        # epoch anchors the grid at attach time: `at(self._interval)`
        # read a duration as an absolute timestamp, so attaching a
        # collector to a simulation already past t=interval scheduled
        # its first sample in the past and raised SimulationError.
        self._epoch: SimTime = self._sim.now
        self._attach(server)
        #: The pending sample event; ``None`` once :meth:`result` ends
        #: the collection.
        self._next_sample: Optional[EventHandle] = self._sim.at(
            self._epoch + self._interval, self._sample
        )

    def _attach(self, server: Any) -> None:
        """Attach the run record to the target and read its scheduler's
        tenants for the Gini rows."""
        server.attach_record(self._record)
        self._states = server.scheduler.tenants()

    def _detach(self, server: Any) -> None:
        """Undo :meth:`_attach`: the target stops writing the record."""
        server.detach_record(self._record)

    def attach_tracer(self, tracer) -> None:
        """Attach a :class:`repro.obs.Tracer`; the collector contributes
        sampling counters to its registry and every periodic per-tenant
        (actual, GPS) service sample, warmup included, to its record."""
        self._trace = tracer

    # -- sampling ----------------------------------------------------------------

    def _replay_arrivals(self) -> None:
        """Feed the arrivals the target recorded to the GPS reference, in
        order, and empty the flat list (the target keeps extending it)."""
        arrivals = self._record.arrivals
        if arrivals:
            it = iter(arrivals)
            try:
                self._gps.replay(zip(it, it, it, it))
            finally:
                arrivals.clear()

    def _sample(self) -> None:
        now = self._sim.now
        self._replay_arrivals()
        gps = self._gps
        gps.advance(now)
        tenants = self._tenants
        # One scan of the workers for every tenant (DESIGN.md §13).
        actual = self._server.service_snapshot(tenants)
        trace = self._trace
        if trace is not None:
            trace.sample(now, actual, gps.services(actual))
        row = array("d", list(actual.values()))
        if now >= self._warmup:
            series = self._partial.series
            if self._observed_samples == 0 and self._previous:
                # First post-warmup sample: the previous (pre-warmup)
                # sample anchors service_rate differencing.
                series.baselines = dict(zip(tenants, self._previous))
            known = self._filed_tenants
            if len(tenants) > known:
                series.add_tenants(list(islice(tenants, known, None)), gps.weights(known))
                self._filed_tenants = len(tenants)
            states = self._states
            active = None
            if states is not None:
                known = self._filed_states
                if len(states) > known:
                    new = list(islice(states.values(), known, None))
                    series.add_gini_tenants(
                        [state.tenant_id for state in new], array("d", map(_weight, new))
                    )
                    self._filed_states = len(states)
                active = bytes(map(_active, states.values()))
            series.observe_row(now, row, gps.sample_row(), active)
            self._observed_samples += 1
        else:
            self._previous = row
            if trace is not None:
                trace.registry.counter("collector.warmup_samples_skipped").inc()
        if trace is not None:
            trace.registry.counter("collector.samples").inc()
        self._sample_index += 1
        self._next_sample = self._sim.at(
            self._epoch + (self._sample_index + 1) * self._interval,
            self._sample,
        )

    # -- results ------------------------------------------------------------------

    def result(self) -> "RunMetrics":
        """Freeze collected data (call after the simulation finishes).

        The first call ends the collection: it cancels the pending
        sample and detaches the run record from the target, so the
        simulation, server or fleet holds no reference to the store and
        nothing later is recorded.  A later call returns the same data.

        Replays the arrivals since the last sample, so a bad arrival
        (a tenant re-arriving with another weight) raises here even when
        the run ends before the next sample."""
        if self._next_sample is not None:
            self._sim.cancel(self._next_sample)
            self._next_sample = None
            self._detach(self._server)
        self._replay_arrivals()
        return RunMetrics(self._partial)


class RunMetrics:
    """Everything measured during one scheduler run, read from its
    :class:`~repro.metrics.store.MetricsPartial` store.  Every number
    is computed from the full per-run values (DESIGN.md §13)."""

    def __init__(self, partial: MetricsPartial) -> None:
        #: The underlying store.
        self.partial = partial
        self.sample_interval = partial.sample_interval
        gini = partial.gini
        self.gini_times = np.asarray([t for t, _ in gini])
        self.gini_values = np.asarray([v for _, v in gini])
        #: Every dispatch, as a read-only :class:`DispatchRecord` view of
        #: the store's flat log.
        self.dispatch_log: Sequence[DispatchRecord] = DispatchLog(
            partial.dispatch_log
        )

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
            if row is not None and row.size:
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
        threads, costs, durations = dispatch_columns(
            self.partial.dispatch_log, num_threads
        )
        # In place: log10(max(cost, 1e-12)) * duration, per record.
        weights = np.log10(np.maximum(costs, 1e-12, out=costs), out=costs)
        weights *= durations
        sums = np.bincount(threads, weights=weights, minlength=num_threads)
        counts = np.bincount(threads, weights=durations, minlength=num_threads)
        with np.errstate(invalid="ignore"):
            return sums / counts
