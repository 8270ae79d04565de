"""The per-run metrics store and its sketches (DESIGN.md §13).

Every per-run statistic lives in one :class:`MetricsPartial`.  Each of
its parts keeps every value, in arrival order, until it passes its
capacity, and only then falls back to a bounded sketch:

* latency, per tenant -- a list of raw values; past capacity a
  :class:`LatencySketch` (:class:`QuantileDigest` for the percentiles,
  :class:`StreamingMoments` for count, mean and max);
* service lag, per tenant -- an ``array('d')`` of ``actual - gps``;
  past capacity :class:`StreamingMoments` (Welford, exact up to
  round-off);
* Gini samples -- a seeded :class:`ReservoirSample` (exact below
  capacity, a uniform subsample beyond);
* dispatch log -- a list trimmed to its newest records;
* service curves -- a :class:`BoundedServiceSeries`, which decimates
  past capacity (drops every other point, doubles its stride).

:data:`CAPACITIES` is the capacity table: ``"exact"`` is the row where
every capacity is unbounded (``None``), ``"streaming"`` the bounded row.
A capacity of ``0`` starts the sketch at the first value.  Below
capacity the statistics are computed from the raw values by the same
numpy calls as an unbounded store, so they are bit-identical to it.

``merge(other)`` combines two consecutive windows, which is what lets
:mod:`repro.parallel` fan one long run out as time shards and merge the
windowed partials back together.  The benchmark gate holds streaming
p50/p99 latency error under 1% vs exact
(``benchmarks/test_bench_metrics_streaming.py``).
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..simulator.rng import make_rng
from ..units import Cost, Duration, Scalar, SimTime
from .latency import LatencyStats
from .service import ServiceSeries

__all__ = [
    "StreamingMoments",
    "QuantileDigest",
    "LatencySketch",
    "ReservoirSample",
    "BoundedServiceSeries",
    "TenantValues",
    "Capacities",
    "CAPACITIES",
    "MetricsPartial",
    "merge_partials",
]


def _max_capacity(a: Optional[int], b: Optional[int]) -> Optional[int]:
    """The larger of two capacities; ``None`` (unbounded) wins."""
    return None if a is None or b is None else max(a, b)


class StreamingMoments:
    """Welford streaming mean/variance with exact parallel merge.

    Matches ``np.mean`` / ``np.std`` (population, ``ddof=0``) up to
    float round-off for any insertion order; ``merge`` uses the Chan et
    al. pairwise-update formula, so merging per-window partials is exact
    too (the property the time-sharded runner relies on).
    """

    __slots__ = ("count", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def add_zeros(self, count: int) -> None:
        """Account ``count`` zero observations in O(1) (late-tenant
        backfill: the exact tracker prepends zeros for samples taken
        before the tenant was first seen)."""
        if count <= 0:
            return
        other = StreamingMoments()
        other.count = count
        other.minimum = 0.0
        other.maximum = 0.0
        other.merge_into(self)

    def merge_into(self, target: "StreamingMoments") -> None:
        """Fold this accumulator into ``target`` (Chan et al.)."""
        if self.count == 0:
            return
        if target.count == 0:
            target.count = self.count
            target.mean = self.mean
            target.m2 = self.m2
            target.minimum = self.minimum
            target.maximum = self.maximum
            return
        total = target.count + self.count
        delta = self.mean - target.mean
        target.m2 = (
            target.m2
            + self.m2
            + delta * delta * target.count * self.count / total
        )
        target.mean += delta * self.count / total
        target.count = total
        target.minimum = min(target.minimum, self.minimum)
        target.maximum = max(target.maximum, self.maximum)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """New accumulator equal to the union of both streams."""
        merged = StreamingMoments()
        self.merge_into(merged)
        other.merge_into(merged)
        return merged

    @property
    def variance(self) -> float:
        """Population variance (``ddof=0``, matching ``np.std``)."""
        if self.count == 0:
            return 0.0
        return self.m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(max(0.0, self.variance))

    def __repr__(self) -> str:
        return (
            f"StreamingMoments(count={self.count}, mean={self.mean:.6g}, "
            f"std={self.std:.6g})"
        )


class QuantileDigest:
    """Mergeable t-digest-style quantile sketch.

    Incoming values buffer until ``buffer_size``, then a compaction pass
    sorts centroids + buffer together and greedily re-clusters under the
    classic t-digest weight limit ``4 * total * q(1-q) / compression``.
    The limit vanishes at ``q -> 0, 1``, so tail centroids stay near
    singletons -- which is why p99 error stays well under the 1% budget
    while the centroid count stays O(compression).

    ``merge(other)`` feeds the other digest's centroids through the same
    compaction (weighted), making windowed partials combinable with the
    same error bound.
    """

    __slots__ = (
        "compression", "_means", "_weights", "_buffer",
        "_buffer_weights", "count", "minimum", "maximum",
    )

    def __init__(self, compression: int = 200) -> None:
        if compression < 20:
            raise ConfigurationError(
                f"compression must be >= 20, got {compression}"
            )
        self.compression = int(compression)
        self._means: List[float] = []
        self._weights: List[float] = []
        self._buffer: List[float] = []
        self._buffer_weights: List[float] = []
        self.count = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    # -- ingestion -----------------------------------------------------------

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ConfigurationError(f"weight must be positive, got {weight}")
        self._buffer.append(float(value))
        self._buffer_weights.append(float(weight))
        self.count += weight
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if len(self._buffer) >= 4 * self.compression:
            self._compress()

    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """New digest summarizing the union of both streams."""
        merged = QuantileDigest(max(self.compression, other.compression))
        for source in (self, other):
            source._compress()
            for mean, weight in zip(source._means, source._weights):
                merged._buffer.append(mean)
                merged._buffer_weights.append(weight)
            merged.count += source.count
            merged.minimum = min(merged.minimum, source.minimum)
            merged.maximum = max(merged.maximum, source.maximum)
        merged._compress()
        return merged

    def _compress(self) -> None:
        if not self._buffer and len(self._means) <= self.compression:
            return
        means = np.asarray(self._means + self._buffer)
        weights = np.asarray(self._weights + self._buffer_weights)
        self._buffer = []
        self._buffer_weights = []
        order = np.argsort(means, kind="stable")
        means = means[order]
        weights = weights[order]
        total = float(weights.sum())
        if total <= 0:
            self._means, self._weights = [], []
            return
        new_means: List[float] = []
        new_weights: List[float] = []
        acc_mean = float(means[0])
        acc_weight = float(weights[0])
        consumed = 0.0
        for mean, weight in zip(means[1:], weights[1:]):
            # Quantile midpoint of the candidate merged centroid.
            q = (consumed + (acc_weight + weight) / 2.0) / total
            limit = 4.0 * total * q * (1.0 - q) / self.compression
            if acc_weight + weight <= limit:
                acc_weight += weight
                acc_mean += (mean - acc_mean) * weight / acc_weight
            else:
                new_means.append(acc_mean)
                new_weights.append(acc_weight)
                consumed += acc_weight
                acc_mean = float(mean)
                acc_weight = float(weight)
        new_means.append(acc_mean)
        new_weights.append(acc_weight)
        self._means = new_means
        self._weights = new_weights

    # -- queries -------------------------------------------------------------

    @property
    def size(self) -> int:
        """Stored points (centroids + unbuffered), the memory gauge."""
        return len(self._means) + len(self._buffer)

    @property
    def empty(self) -> bool:
        return self.count == 0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        self._compress()
        means = self._means
        weights = self._weights
        if len(means) == 1:
            return means[0]
        # Rank convention: q * (n - 1) + 0.5 in 1-based midpoint space
        # matches np.percentile's linear interpolation exactly when every
        # centroid is a singleton (small streams never compress, so the
        # differential tests agree bit-for-bit there); for weighted
        # centroids the half-sample shift is O(1/n).
        target = q * (self.count - 1.0) + 0.5
        # Centroid midpoints in cumulative-weight space, with the true
        # min/max anchoring the extremes.
        cumulative = 0.0
        previous_value = self.minimum
        previous_position = 0.0
        for mean, weight in zip(means, weights):
            position = cumulative + weight / 2.0
            if target <= position:
                span = position - previous_position
                if span <= 0:
                    return mean
                fraction = (target - previous_position) / span
                return previous_value + (mean - previous_value) * fraction
            cumulative += weight
            previous_value = mean
            previous_position = position
        span = self.count - previous_position
        if span <= 0:
            return previous_value
        fraction = (target - previous_position) / span
        return previous_value + (self.maximum - previous_value) * fraction

    def __repr__(self) -> str:
        return (
            f"QuantileDigest(count={self.count:g}, centroids={self.size}, "
            f"compression={self.compression})"
        )


class LatencySketch:
    """One tenant's latencies past its raw capacity: a
    :class:`QuantileDigest` for the percentiles and
    :class:`StreamingMoments` for count, mean and max (exact)."""

    __slots__ = ("digest", "moments")

    def __init__(self) -> None:
        self.digest = QuantileDigest()
        self.moments = StreamingMoments()

    def add(self, value: Duration) -> None:
        self.digest.add(value)
        self.moments.add(value)

    def merge(self, other: "LatencySketch") -> "LatencySketch":
        merged = LatencySketch()
        merged.digest = self.digest.merge(other.digest)
        merged.moments = self.moments.merge(other.moments)
        return merged

    def stats(self) -> LatencyStats:
        return LatencyStats(
            count=int(self.moments.count),
            mean=float(self.moments.mean),
            p1=float(self.digest.quantile(0.01)),
            p50=float(self.digest.quantile(0.50)),
            p99=float(self.digest.quantile(0.99)),
            maximum=float(self.moments.maximum),
        )


class ReservoirSample:
    """Seeded Algorithm-R reservoir of (time, value) samples.

    Exact (every sample kept, in arrival order) while the stream fits in
    ``capacity`` (``None``: always); a uniform random subsample beyond.
    All randomness flows through :func:`repro.simulator.rng.make_rng`,
    so reservoirs are reproducible and cell-deterministic.  The
    generator is built at the first eviction: an unbounded reservoir
    never pays for one.
    """

    __slots__ = ("capacity", "seen", "_items", "_rng", "_rng_key")

    def __init__(self, capacity: Optional[int], seed: int, *key: str) -> None:
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.seen = 0
        self._items: List[Tuple[float, float]] = []
        self._rng: Optional[np.random.Generator] = None
        self._rng_key = (seed, "reservoir", *key)

    def _generator(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = make_rng(*self._rng_key)
        return self._rng

    def add(self, time: float, value: float) -> None:
        self.seen += 1
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append((time, value))
            return
        slot = int(self._generator().integers(0, self.seen))
        if slot < self.capacity:
            self._items[slot] = (time, value)

    @property
    def exact(self) -> bool:
        """True while no sample has been evicted."""
        return self.seen == len(self._items)

    @property
    def size(self) -> int:
        return len(self._items)

    def items(self) -> List[Tuple[float, float]]:
        """Samples sorted by time."""
        return sorted(self._items)

    def merge(self, other: "ReservoirSample") -> "ReservoirSample":
        """Union reservoir; draws from each side proportionally to its
        stream length (exact concatenation while everything fits)."""
        merged = ReservoirSample(_max_capacity(self.capacity, other.capacity), 0)
        merged.seen = self.seen + other.seen
        combined = self._items + other._items
        if merged.capacity is None or len(combined) <= merged.capacity:
            merged._items = combined
            return merged
        # The merged reservoir's own rng continues from a copy of self's
        # stream: deterministic across repeated merges, and the inputs
        # stay untouched.
        rng = merged._rng = copy.deepcopy(self._generator())
        weight_self = self.seen / merged.seen
        take_self = int(round(merged.capacity * weight_self))
        take_self = min(max(take_self, merged.capacity - len(other._items)),
                        len(self._items))
        take_other = merged.capacity - take_self
        pick_self = rng.choice(len(self._items), size=take_self, replace=False)
        pick_other = rng.choice(len(other._items), size=take_other, replace=False)
        merged._items = [self._items[i] for i in sorted(pick_self)] + [
            other._items[i] for i in sorted(pick_other)
        ]
        return merged

    def __repr__(self) -> str:
        return (
            f"ReservoirSample(size={self.size}/{self.capacity}, "
            f"seen={self.seen})"
        )


class BoundedServiceSeries:
    """Decimating recorder of per-tenant cumulative service curves.

    Stores fewer than ``capacity`` sample instants (``None``: every
    one): when full, every other stored sample is dropped and the
    recording stride doubles, so the curve's shape survives at half
    resolution.  Tenants appearing mid-run are backfilled with zero
    service for earlier samples; a tenant missing from a later sample
    carries its last value.

    ``baselines`` holds each tenant's cumulative service *before* the
    first sample (the last pre-warmup sample), so
    :meth:`ServiceSeries.service_rate` differences the first sample
    against it instead of against zero.
    """

    __slots__ = (
        "capacity", "stride", "_counter", "times", "actual", "gps", "baselines",
    )

    def __init__(self, capacity: Optional[int] = 1024) -> None:
        if capacity is not None and capacity < 8:
            raise ConfigurationError(f"capacity must be >= 8, got {capacity}")
        self.capacity = capacity
        self.stride = 1
        self._counter = 0
        self.times: List[SimTime] = []
        self.actual: Dict[str, List[Cost]] = {}
        self.gps: Dict[str, List[Cost]] = {}
        self.baselines: Dict[str, Cost] = {}

    def observe(
        self, time: SimTime, actual: Dict[str, Cost], gps: Dict[str, Cost]
    ) -> None:
        self._counter += 1
        if (self._counter - 1) % self.stride != 0:
            return
        index = len(self.times)
        self.times.append(time)
        for store, values in ((self.actual, actual), (self.gps, gps)):
            for tenant, value in values.items():
                column = store.setdefault(tenant, [0.0] * index)
                if len(column) < index:
                    pad = column[-1] if column else 0.0
                    column.extend([pad] * (index - len(column)))
                column.append(value)
        if self.capacity is not None and len(self.times) >= self.capacity:
            self._decimate()

    def _decimate(self) -> None:
        # Keep odd indices: the most recent sample always survives.
        self.times = self.times[1::2]
        for store in (self.actual, self.gps):
            for tenant in store:
                store[tenant] = store[tenant][1::2]
        self.stride *= 2

    @property
    def size(self) -> int:
        return len(self.times)

    def tenants(self) -> List[str]:
        return sorted(self.actual)

    def columns(self, tenant_id: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, actual, gps) arrays for one tenant; trailing gaps
        carry the last value."""
        n = len(self.times)

        def column(store: Dict[str, List[Cost]]) -> np.ndarray:
            values = store.get(tenant_id, [])
            if len(values) < n:
                pad = values[-1] if values else 0.0
                values = values + [pad] * (n - len(values))
            return np.asarray(values)

        return np.asarray(self.times), column(self.actual), column(self.gps)

    def service_series(self, tenant_id: str) -> ServiceSeries:
        """Freeze one tenant's samples into a :class:`ServiceSeries`."""
        times, actual, gps = self.columns(tenant_id)
        return ServiceSeries(
            tenant_id=tenant_id,
            times=times,
            actual=actual,
            gps=gps,
            baseline=self.baselines.get(tenant_id, 0.0),
        )

    def shift_times(self, offset: Duration) -> None:
        self.times = [t + offset for t in self.times]

    def final_values(self) -> Tuple[Dict[str, Cost], Dict[str, Cost]]:
        """Last recorded cumulative (actual, gps) per tenant."""
        actual = {t: (c[-1] if c else 0.0) for t, c in self.actual.items()}
        gps = {t: (c[-1] if c else 0.0) for t, c in self.gps.items()}
        return actual, gps

    def merge(self, other: "BoundedServiceSeries") -> "BoundedServiceSeries":
        """Concatenate a later window, re-basing its cumulative curves on
        this window's final values, then re-decimate to capacity.  The
        baselines are this window's."""
        merged = BoundedServiceSeries(_max_capacity(self.capacity, other.capacity))
        merged.baselines = dict(self.baselines)
        merged.stride = max(self.stride, other.stride)
        final_actual, final_gps = self.final_values()
        times = list(self.times)
        n_self = len(times)
        merged.times = times + list(other.times)
        for store, own, finals in (
            (merged.actual, self.actual, final_actual),
            (merged.gps, self.gps, final_gps),
        ):
            source = other.actual if store is merged.actual else other.gps
            tenants = set(own) | set(source)
            for tenant in tenants:
                head = list(own.get(tenant, []))
                if len(head) < n_self:
                    pad = head[-1] if head else 0.0
                    head.extend([pad] * (n_self - len(head)))
                offset = finals.get(tenant, 0.0)
                tail = [offset + v for v in source.get(tenant, [])]
                if len(tail) < len(other.times):
                    pad = tail[-1] if tail else offset
                    tail.extend([pad] * (len(other.times) - len(tail)))
                store[tenant] = head + tail
        merged._counter = len(merged.times)
        while merged.capacity is not None and len(merged.times) >= merged.capacity:
            merged._decimate()
        return merged


def _float_array(values: Sequence[float] = ()) -> "array[float]":
    return array("d", values)


class TenantValues:
    """Per-tenant value streams kept raw until capacity -- the one helper
    behind the latency and the lag parts of :class:`MetricsPartial`.

    ``raw[tenant]`` holds a tenant's values in arrival order; writers
    append to it directly.  :meth:`fold` enforces ``capacity``: once a
    tenant's raw count passes it, its values are fed, in order, into a
    fresh ``sketch()``, and from then on every :meth:`fold` drains the
    values appended since into that sketch.  ``capacity=None`` never
    folds; ``0`` folds from the first value.
    """

    __slots__ = ("capacity", "raw", "sketches", "_sketch", "_raw")

    def __init__(
        self,
        capacity: Optional[int],
        sketch: Callable[[], Any],
        raw: Callable[..., Any] = list,
    ) -> None:
        self.capacity = capacity
        self.raw: Dict[str, Any] = {}
        self.sketches: Dict[str, Any] = {}
        self._sketch = sketch
        self._raw = raw

    def tenants(self) -> Set[str]:
        return self.raw.keys() | self.sketches.keys()

    def _zeros(self, count: int) -> Any:
        """``count`` zero values: raw while they fit, else a sketch."""
        if self.capacity is not None and count > self.capacity:
            sketch = self._sketch()
            sketch.add_zeros(count)
            return sketch
        return self._raw([0.0] * count)

    def start(self, tenant: str, zeros: int = 0) -> Any:
        """Open ``tenant``'s stream behind ``zeros`` zero values (a late
        tenant's lag before it was first sampled); returns its raw
        buffer."""
        head = self._zeros(zeros)
        if isinstance(head, self._sketch):
            self.sketches[tenant] = head
            head = self._raw()
        self.raw[tenant] = head
        return head

    def fold(self) -> None:
        """Move every value past capacity into its tenant's sketch."""
        capacity = self.capacity
        if capacity is None:
            return
        sketches = self.sketches
        for tenant, values in self.raw.items():
            if not values:
                continue
            sketch = sketches.get(tenant)
            if sketch is None:
                if len(values) <= capacity:
                    continue
                sketch = sketches[tenant] = self._sketch()
            for value in values:
                sketch.add(value)
            del values[:]

    def _window(self, tenant: str, zeros: int) -> Any:
        """This (folded) window's part of ``tenant``: its sketch, else
        its raw values; an absent tenant stands for ``zeros`` zeros."""
        sketch = self.sketches.get(tenant)
        if sketch is not None:
            return sketch
        values = self.raw.get(tenant)
        return self._zeros(zeros) if values is None else values

    def _as_sketch(self, part: Any) -> Any:
        if isinstance(part, self._sketch):
            return part
        sketch = self._sketch()
        for value in part:
            sketch.add(value)
        return sketch

    def merge(
        self, other: "TenantValues", zeros: Tuple[int, int] = (0, 0)
    ) -> "TenantValues":
        """Union with a *later* window.  Raw streams concatenate, bit for
        bit; a sketch on either side merges with the other side's
        sketch.  ``zeros`` is what a tenant missing from (self, other)
        stands for there: that many zero values (lag), or none."""
        self.fold()
        other.fold()
        merged = TenantValues(self.capacity, self._sketch, self._raw)
        names = dict.fromkeys([*self.raw, *self.sketches, *other.raw, *other.sketches])
        for tenant in names:
            left = self._window(tenant, zeros[0])
            right = other._window(tenant, zeros[1])
            left_raw = not isinstance(left, self._sketch)
            right_raw = not isinstance(right, self._sketch)
            if left_raw and right_raw:
                merged.raw[tenant] = left + right
            elif left_raw and not left:
                merged.sketches[tenant] = right
            elif right_raw and not right:
                merged.sketches[tenant] = left
            else:
                merged.sketches[tenant] = self._as_sketch(left).merge(
                    self._as_sketch(right)
                )
        merged.fold()
        return merged


@dataclasses.dataclass(frozen=True)
class Capacities:
    """How many values each part of a :class:`MetricsPartial` keeps raw
    before it falls back to its sketch; ``None`` is unbounded."""

    #: Stored service-curve sample instants (decimated beyond).
    series: Optional[int]
    #: Gini samples (a uniform subsample beyond).
    reservoir: Optional[int]
    #: Newest dispatch records kept.
    dispatch: Optional[int]
    #: Raw latencies per tenant (digest + moments beyond).
    latency: Optional[int]
    #: Raw lag samples per tenant (moments beyond).
    lag: Optional[int]

    def __post_init__(self) -> None:
        for name, value in dataclasses.asdict(self).items():
            if value is not None and (not isinstance(value, int) or value < 0):
                raise ConfigurationError(
                    f"{name} capacity must be None or an int >= 0, got {value!r}"
                )

    @property
    def bounded(self) -> bool:
        return any(value is not None for value in dataclasses.astuple(self))


#: The capacity table: one row per collector mode.
CAPACITIES: Dict[str, Capacities] = {
    "exact": Capacities(series=None, reservoir=None, dispatch=None, latency=None, lag=None),
    "streaming": Capacities(series=1024, reservoir=4096, dispatch=65536, latency=0, lag=0),
}


class MetricsPartial:
    """Every statistic of one run (or one time shard): the picklable,
    mergeable store behind :class:`~repro.metrics.collector.RunMetrics`.

    Writers append straight into ``latencies.raw[tenant]`` and
    ``dispatch_log``; :meth:`observe_sample` and :meth:`observe_gini`
    take the periodic samples, and :meth:`enforce_capacities` folds
    and trims whatever passed its capacity.

    ``merge(other)`` combines two consecutive windows: raw values
    concatenate, sketches merge (the digest within its error bound),
    service curves re-base on the earlier window's final cumulative
    values, the Gini reservoir subsamples proportionally, and the
    dispatch log keeps its newest records.  This is the unit the
    time-sharded parallel runner fans out and folds back together.
    """

    def __init__(
        self,
        sample_interval: Duration,
        seed: int = 0,
        capacities: Capacities = CAPACITIES["streaming"],
    ) -> None:
        self.sample_interval: Duration = float(sample_interval)
        self.seed = int(seed)
        self.capacities = capacities
        self.latencies = TenantValues(capacities.latency, LatencySketch)
        self.lags = TenantValues(capacities.lag, StreamingMoments, _float_array)
        self.dispatch_log: List[Any] = []
        self.dispatches_dropped = 0
        self.lag_samples = 0

    # The sampled parts are built at first use, which keeps a collector's
    # construction -- most of a short run's set-up time -- cheap.

    @functools.cached_property
    def series(self) -> BoundedServiceSeries:
        return BoundedServiceSeries(self.capacities.series)

    @functools.cached_property
    def gini(self) -> ReservoirSample:
        return ReservoirSample(self.capacities.reservoir, self.seed, "gini")

    @functools.cached_property
    def gini_moments(self) -> StreamingMoments:
        return StreamingMoments()

    # -- ingestion (collector-facing) ---------------------------------------

    def observe_sample(
        self, now: SimTime, actual: Dict[str, Cost], gps: Dict[str, Cost]
    ) -> None:
        raw = self.lags.raw
        for tenant, value in actual.items():
            values = raw.get(tenant)
            if values is None:
                # Late tenant: zero lag for the samples before it was seen.
                values = self.lags.start(tenant, self.lag_samples)
            values.append(value - gps.get(tenant, 0.0))
        self.lag_samples += 1
        self.series.observe(now, actual, gps)

    def observe_gini(self, now: SimTime, value: Scalar) -> None:
        self.gini.add(now, value)
        self.gini_moments.add(value)

    def enforce_capacities(self) -> None:
        """Fold latencies and lags past capacity into their sketches and
        trim the dispatch log to its newest records."""
        self.latencies.fold()
        self.lags.fold()
        capacity = self.capacities.dispatch
        if capacity is not None and len(self.dispatch_log) > capacity:
            excess = len(self.dispatch_log) - capacity
            del self.dispatch_log[:excess]
            self.dispatches_dropped += excess

    # -- windowed composition ------------------------------------------------

    def shift_times(self, offset: Duration) -> None:
        """Move every recorded timestamp by ``offset`` (shard -> global
        clock): sample times, Gini sample times, and dispatch-record
        start/end times."""
        self.series.shift_times(offset)
        self.gini._items = [(t + offset, v) for t, v in self.gini._items]
        self.dispatch_log[:] = [
            dataclasses.replace(
                record, start=record.start + offset, end=record.end + offset
            )
            for record in self.dispatch_log
        ]

    def merge(self, other: "MetricsPartial") -> "MetricsPartial":
        """Combine with a *later* window's partial."""
        merged = MetricsPartial(self.sample_interval, self.seed, self.capacities)
        merged.latencies = self.latencies.merge(other.latencies)
        merged.lags = self.lags.merge(
            other.lags, zeros=(self.lag_samples, other.lag_samples)
        )
        merged.lag_samples = self.lag_samples + other.lag_samples
        merged.series = self.series.merge(other.series)
        merged.gini = self.gini.merge(other.gini)
        merged.gini_moments = self.gini_moments.merge(other.gini_moments)
        merged.dispatch_log = self.dispatch_log + other.dispatch_log
        merged.dispatches_dropped = self.dispatches_dropped + other.dispatches_dropped
        merged.enforce_capacities()
        return merged

    # -- gauges ---------------------------------------------------------------

    def sketch_sizes(self) -> Dict[str, int]:
        """Current stored-point counts, exported as obs gauges."""
        return {
            "latency_centroids": sum(
                sketch.digest.size for sketch in self.latencies.sketches.values()
            ) + sum(len(values) for values in self.latencies.raw.values()),
            "series_points": self.series.size,
            "gini_reservoir": self.gini.size,
            "dispatch_log": len(self.dispatch_log),
            "tenants": len(self.lags.tenants()),
        }


def merge_partials(partials: Sequence[MetricsPartial]) -> MetricsPartial:
    """Fold consecutive windowed partials (earliest first) into one."""
    if not partials:
        raise ConfigurationError("merge_partials needs at least one partial")
    merged: Optional[MetricsPartial] = None
    for partial in partials:
        merged = partial if merged is None else merged.merge(partial)
    return merged  # type: ignore[return-value]  -- loop ran at least once
