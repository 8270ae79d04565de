"""The metrics store: sketches, capacities, the collector, time shards.

Four layers of coverage (DESIGN.md §13):

* sketch unit tests -- each accumulator against its exact numpy
  counterpart, including the ``merge`` paths the time-sharded runner
  depends on;
* store tests -- each part of :class:`MetricsPartial` raw until its
  capacity and its sketch beyond, and merges of exact stores bit for
  bit;
* collector differential tests -- the same simulation run in
  ``mode="exact"`` and ``mode="streaming"`` must agree: exactly where
  streaming keeps full information (counts, means, lag sigma, Gini
  while the reservoir is unfilled, dispatch tail), within the sketch
  error budget (<1%) for latency percentiles;
* composition tests -- windowed partials merged back together, and the
  :func:`repro.parallel.run_time_sharded` fan-out against an unsharded
  run.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import make_scheduler
from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_single
from repro.metrics import MetricsCollector, RunMetrics, latency_stats
from repro.metrics.collector import DispatchRecord
from repro.metrics.streaming import (
    CAPACITIES,
    BoundedServiceSeries,
    LatencySketch,
    MetricsPartial,
    QuantileDigest,
    ReservoirSample,
    StreamingMoments,
    TenantValues,
    merge_partials,
)
from repro.parallel import run_time_sharded, slice_trace
from repro.simulator import BackloggedSource, Simulation, ThreadPoolServer
from repro.simulator.rng import make_rng
from repro.workloads import (
    LogNormalCost,
    PoissonArrivals,
    TenantSpec,
    generate_trace,
)


class TestStreamingMoments:
    def test_matches_numpy(self):
        rng = make_rng(1, "moments")
        values = rng.normal(3.0, 2.0, size=1000)
        moments = StreamingMoments()
        for v in values:
            moments.add(float(v))
        assert moments.count == 1000
        assert moments.mean == pytest.approx(np.mean(values))
        assert moments.std == pytest.approx(np.std(values))
        assert moments.minimum == pytest.approx(values.min())
        assert moments.maximum == pytest.approx(values.max())

    def test_merge_is_exact(self):
        rng = make_rng(2, "moments")
        values = rng.normal(0.0, 1.0, size=501)
        left, right = StreamingMoments(), StreamingMoments()
        for v in values[:200]:
            left.add(float(v))
        for v in values[200:]:
            right.add(float(v))
        merged = left.merge(right)
        assert merged.count == 501
        assert merged.mean == pytest.approx(np.mean(values))
        assert merged.std == pytest.approx(np.std(values))

    def test_merge_with_empty(self):
        moments = StreamingMoments()
        moments.add(5.0)
        assert moments.merge(StreamingMoments()).mean == 5.0
        assert StreamingMoments().merge(moments).std == 0.0

    def test_add_zeros_matches_explicit_zeros(self):
        backfilled = StreamingMoments()
        backfilled.add_zeros(10)
        backfilled.add(4.0)
        explicit = StreamingMoments()
        for _ in range(10):
            explicit.add(0.0)
        explicit.add(4.0)
        assert backfilled.count == explicit.count
        assert backfilled.mean == pytest.approx(explicit.mean)
        assert backfilled.std == pytest.approx(explicit.std)

    def test_empty(self):
        moments = StreamingMoments()
        assert moments.count == 0
        assert moments.variance == 0.0


class TestQuantileDigest:
    def _fill(self, digest, values):
        for v in values:
            digest.add(float(v))

    def test_percentiles_within_one_percent(self):
        rng = make_rng(3, "digest")
        values = rng.lognormal(mean=-2.0, sigma=1.2, size=20000)
        digest = QuantileDigest(compression=200)
        self._fill(digest, values)
        for q in (0.01, 0.50, 0.99):
            exact = float(np.percentile(values, q * 100.0))
            assert digest.quantile(q) == pytest.approx(exact, rel=0.01)

    def test_bounded_size(self):
        # Centroid count is O(compression) with a log(n) tail factor
        # (tail centroids stay near-singletons); 50k points must land
        # far below linear growth.
        rng = make_rng(4, "digest")
        digest = QuantileDigest(compression=100)
        self._fill(digest, rng.random(50000))
        digest._compress()
        assert digest.size <= 8 * 100

    def test_extremes_are_exact(self):
        digest = QuantileDigest()
        values = [5.0, 1.0, 9.0, 3.0]
        self._fill(digest, values)
        assert digest.quantile(0.0) == pytest.approx(1.0)
        assert digest.quantile(1.0) == pytest.approx(9.0)

    def test_merge_matches_union(self):
        rng = make_rng(5, "digest")
        left_values = rng.normal(0.0, 1.0, size=8000)
        right_values = rng.normal(4.0, 0.5, size=4000)
        left, right = QuantileDigest(), QuantileDigest()
        self._fill(left, left_values)
        self._fill(right, right_values)
        merged = left.merge(right)
        union = np.concatenate([left_values, right_values])
        assert merged.count == pytest.approx(12000)
        for q in (0.01, 0.50, 0.99):
            exact = float(np.percentile(union, q * 100.0))
            assert merged.quantile(q) == pytest.approx(exact, rel=0.02, abs=0.02)

    def test_empty_and_validation(self):
        digest = QuantileDigest()
        assert digest.empty
        assert np.isnan(digest.quantile(0.5))
        with pytest.raises(ConfigurationError):
            digest.quantile(1.5)
        with pytest.raises(ConfigurationError):
            digest.add(1.0, weight=0.0)
        with pytest.raises(ConfigurationError):
            QuantileDigest(compression=2)


class TestReservoirSample:
    def test_exact_below_capacity(self):
        reservoir = ReservoirSample(10, seed=0)
        for i in range(8):
            reservoir.add(float(i), float(i) * 2.0)
        assert reservoir.exact
        assert reservoir.items() == [(float(i), float(i) * 2.0) for i in range(8)]

    def test_bounded_and_seeded(self):
        def build():
            reservoir = ReservoirSample(16, seed=42, )
            for i in range(1000):
                reservoir.add(float(i), float(i))
            return reservoir

        a, b = build(), build()
        assert not a.exact
        assert a.size == 16
        assert a.items() == b.items()  # same seed, same subsample

    def test_merge_exact_when_fits(self):
        left = ReservoirSample(10, seed=0)
        right = ReservoirSample(10, seed=0, )
        left.add(0.0, 1.0)
        right.add(1.0, 2.0)
        merged = left.merge(right)
        assert merged.items() == [(0.0, 1.0), (1.0, 2.0)]
        assert merged.seen == 2

    def test_merge_bounded_and_proportional(self):
        left = ReservoirSample(16, seed=1)
        right = ReservoirSample(16, seed=2)
        for i in range(900):
            left.add(float(i), -1.0)
        for i in range(100):
            right.add(1000.0 + i, +1.0)
        merged = left.merge(right)
        assert merged.size == 16
        assert merged.seen == 1000
        # ~90% of the stream came from the left window.
        values = [v for _, v in merged.items()]
        assert values.count(-1.0) >= 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReservoirSample(0, seed=0)

    def test_unbounded_keeps_everything_and_builds_no_rng(self):
        reservoir = ReservoirSample(None, seed=0)
        for i in range(10000):
            reservoir.add(float(i), float(i))
        assert reservoir.exact
        assert reservoir.size == 10000
        assert reservoir._rng is None
        merged = reservoir.merge(ReservoirSample(None, seed=0))
        assert merged.capacity is None
        assert merged.items() == reservoir.items()


def _dispatch_records(start, count):
    return [
        DispatchRecord(i % 2, "A", "x", 1.0, start=float(i), end=float(i) + 0.5)
        for i in range(start, start + count)
    ]


def _capacities(**overrides):
    return dataclasses.replace(CAPACITIES["exact"], **overrides)


class TestDispatchLogCapacity:
    """The dispatch-log part of the store: a list trimmed to its newest
    ``capacities.dispatch`` records."""

    def test_keeps_most_recent(self):
        partial = MetricsPartial(0.1, capacities=_capacities(dispatch=3))
        records = _dispatch_records(0, 7)
        partial.dispatch_log.extend(records)
        partial.enforce_capacities()
        assert partial.dispatch_log == records[4:]
        assert partial.dispatches_dropped == 4

    def test_below_capacity(self):
        partial = MetricsPartial(0.1, capacities=_capacities(dispatch=8))
        records = _dispatch_records(0, 1)
        partial.dispatch_log.extend(records)
        partial.enforce_capacities()
        assert partial.dispatch_log == records
        assert partial.dispatches_dropped == 0

    def test_merge_keeps_tail(self):
        left = MetricsPartial(0.1, capacities=_capacities(dispatch=4))
        right = MetricsPartial(0.1, capacities=_capacities(dispatch=4))
        records = _dispatch_records(0, 10)
        left.dispatch_log.extend(records[:4])
        right.dispatch_log.extend(records[4:])
        right.enforce_capacities()
        merged = left.merge(right)
        assert merged.dispatch_log == records[6:]
        assert merged.dispatches_dropped + len(merged.dispatch_log) == 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _capacities(dispatch=-1)
        with pytest.raises(ConfigurationError):
            _capacities(latency=1.5)


class TestBoundedServiceSeries:
    def test_below_capacity_is_exact(self):
        series = BoundedServiceSeries(capacity=64)
        for i in range(10):
            series.observe(i * 0.1, {"A": float(i)}, {"A": float(i) * 0.9})
        times, actual, gps = series.columns("A")
        assert times == pytest.approx(np.arange(10) * 0.1)
        assert actual == pytest.approx(np.arange(10, dtype=float))
        assert gps == pytest.approx(np.arange(10) * 0.9)

    def test_decimation_bounds_memory_and_keeps_shape(self):
        series = BoundedServiceSeries(capacity=32)
        for i in range(1000):
            series.observe(i * 0.1, {"A": float(i)}, {})
        assert series.size < 32
        times, actual, _ = series.columns("A")
        # The cumulative curve y = 10 x survives decimation exactly at
        # the retained instants.
        assert actual == pytest.approx(times * 10.0)
        assert series.stride > 1

    def test_late_tenant_backfilled(self):
        series = BoundedServiceSeries()
        series.observe(0.1, {"A": 1.0}, {})
        series.observe(0.2, {"A": 2.0, "B": 5.0}, {})
        _, actual_b, _ = series.columns("B")
        assert actual_b == pytest.approx([0.0, 5.0])

    def test_merge_rebases_cumulative_curves(self):
        left = BoundedServiceSeries(capacity=64)
        right = BoundedServiceSeries(capacity=64)
        for i in range(5):
            left.observe(i * 0.1, {"A": float(i)}, {"A": float(i)})
        # The later window restarts its cumulative counters at zero
        # (its shard's server started idle); merge re-bases on the
        # earlier window's finals.
        for i in range(5):
            right.observe(0.5 + i * 0.1, {"A": float(i) * 2.0}, {"A": float(i)})
        merged = left.merge(right)
        times, actual, gps = merged.columns("A")
        assert times == pytest.approx(np.arange(10) * 0.1)
        assert actual == pytest.approx(
            [0, 1, 2, 3, 4, 4, 6, 8, 10, 12], abs=1e-12
        )
        assert gps == pytest.approx([0, 1, 2, 3, 4, 4, 5, 6, 7, 8], abs=1e-12)

    def test_merge_handles_disjoint_tenants(self):
        left = BoundedServiceSeries()
        right = BoundedServiceSeries()
        left.observe(0.0, {"A": 1.0}, {})
        right.observe(0.1, {"B": 2.0}, {})
        merged = left.merge(right)
        _, actual_a, _ = merged.columns("A")
        _, actual_b, _ = merged.columns("B")
        assert actual_a == pytest.approx([1.0, 1.0])  # trailing pad
        assert actual_b == pytest.approx([0.0, 2.0])  # backfill

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedServiceSeries(capacity=4)


def _run_collector(mode, duration=2.0, warmup=0.0):
    """One deterministic backlogged run, collected in the given mode."""
    sim = Simulation()
    scheduler = make_scheduler("2dfq", num_threads=2, thread_rate=10.0)
    server = ThreadPoolServer(
        sim, scheduler, num_threads=2, rate=10.0, refresh_interval=None
    )
    collector = MetricsCollector(
        server, sample_interval=0.1, warmup=warmup, mode=mode
    )
    costs = iter([1.0, 5.0, 0.5, 2.0] * 10000)
    BackloggedSource(server, "A", lambda: ("x", 1.0), window=2).start()
    BackloggedSource(server, "B", lambda: ("y", next(costs)), window=2).start()
    sim.run(until=duration)
    return collector


class TestStreamingCollectorDifferential:
    def test_latency_stats_within_budget(self):
        exact = _run_collector("exact").result()
        streaming = _run_collector("streaming").result()
        for tenant in exact.tenants():
            es, ss = exact.latency_stats(tenant), streaming.latency_stats(tenant)
            assert ss.count == es.count
            assert ss.mean == pytest.approx(es.mean)
            assert ss.maximum == es.maximum
            assert ss.p50 == pytest.approx(es.p50, rel=0.01)
            assert ss.p99 == pytest.approx(es.p99, rel=0.01)

    def test_lag_sigma_matches(self):
        exact = _run_collector("exact").result()
        streaming = _run_collector("streaming").result()
        for tenant in exact.tenants():
            assert streaming.lag_sigma(tenant, reference_rate=10.0) == (
                pytest.approx(exact.lag_sigma(tenant, reference_rate=10.0))
            )
        assert streaming.lag_sigmas(reference_rate=10.0).keys() == (
            exact.lag_sigmas(reference_rate=10.0).keys()
        )

    def test_gini_exact_while_reservoir_unfilled(self):
        exact = _run_collector("exact").result()
        streaming = _run_collector("streaming").result()
        assert streaming.gini_times == pytest.approx(exact.gini_times)
        assert streaming.gini_values == pytest.approx(exact.gini_values)
        assert streaming.gini_mean == pytest.approx(
            float(np.mean(exact.gini_values))
        )

    def test_dispatch_ring_is_tail_of_exact_log(self):
        exact = _run_collector("exact").result()
        partial = MetricsPartial(0.1, capacities=_capacities(dispatch=16))
        for record in exact.dispatch_log:
            partial.dispatch_log.append(record)
            if len(partial.dispatch_log) % 10 == 0:
                partial.enforce_capacities()
        bounded = RunMetrics(partial)
        assert bounded.dispatch_log == exact.dispatch_log[-16:]
        assert partial.dispatches_dropped + 16 == len(exact.dispatch_log)

    def test_service_series_matches_below_capacity(self):
        exact = _run_collector("exact").result()
        streaming = _run_collector("streaming").result()
        for tenant in exact.tenants():
            es = exact.service_series(tenant)
            ss = streaming.service_series(tenant)
            assert ss.times == pytest.approx(es.times)
            assert ss.actual == pytest.approx(es.actual)
            assert ss.gps == pytest.approx(es.gps)
            assert ss.service_rate() == pytest.approx(es.service_rate())

    def test_warmup_baseline_matches_exact(self):
        exact = _run_collector("exact", warmup=1.0).result()
        streaming = _run_collector("streaming", warmup=1.0).result()
        for tenant in exact.tenants():
            assert streaming.service_series(tenant).service_rate() == (
                pytest.approx(exact.service_series(tenant).service_rate())
            )

    def test_modes_pick_rows_of_the_capacity_table(self):
        for mode in ("exact", "streaming"):
            collector = _run_collector(mode, duration=0.5)
            assert collector.partial().capacities == CAPACITIES[mode]
        assert not CAPACITIES["exact"].bounded
        assert CAPACITIES["streaming"].bounded

    def test_invalid_mode_rejected(self):
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, refresh_interval=None
        )
        with pytest.raises(ConfigurationError):
            MetricsCollector(server, mode="approximate")

    def test_sketch_sizes_reported(self):
        streaming = _run_collector("streaming").result()
        sizes = streaming.sketch_sizes()
        assert sizes["tenants"] == 2
        assert sizes["series_points"] > 0
        assert sizes["dispatch_log"] > 0
        assert sizes["latency_centroids"] > 0

    def _traced_run(self, mode):
        from repro.obs.tracer import Tracer

        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1, thread_rate=10.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, rate=10.0, refresh_interval=None
        )
        collector = MetricsCollector(server, sample_interval=0.1, mode=mode)
        tracer = Tracer(f"{mode}-gauges")
        collector.attach_tracer(tracer)
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=1).start()
        sim.run(until=1.0)
        return collector, tracer.registry.snapshot()

    def test_sketch_gauges_exported_to_tracer(self):
        collector, snapshot = self._traced_run("streaming")
        sizes = collector.partial().sketch_sizes()
        for name, value in sizes.items():
            assert snapshot[f"collector.sketch.{name}"] == value
        assert snapshot["collector.samples"] > 0

    def test_no_sketch_gauges_for_an_unbounded_store(self):
        _, snapshot = self._traced_run("exact")
        assert not [name for name in snapshot if name.startswith("collector.sketch.")]
        assert snapshot["collector.samples"] > 0

    def test_partial_pickles(self):
        partial = _run_collector("streaming").partial()
        clone = pickle.loads(pickle.dumps(partial))
        assert clone.sketch_sizes() == partial.sketch_sizes()
        assert clone.lag_samples == partial.lag_samples


def _add_latency(partial, tenant, value):
    partial.latencies.raw.setdefault(tenant, []).append(value)


class TestMetricsPartialMerge:
    def _synthetic(self, offset, samples=40, seed=0, capacities=CAPACITIES["streaming"]):
        partial = MetricsPartial(sample_interval=0.1, seed=seed, capacities=capacities)
        rng = make_rng(seed, "synthetic", str(offset))
        for i in range(samples):
            now = offset + (i + 1) * 0.1
            actual = {"A": (i + 1) * 1.0, "B": (i + 1) * 0.5}
            gps = {"A": (i + 1) * 0.9, "B": (i + 1) * 0.6}
            partial.observe_sample(now, actual, gps)
            partial.observe_gini(now, float(rng.random()))
            _add_latency(partial, "A", float(rng.lognormal(-2.0, 1.0)))
        return partial

    def test_merge_equals_concatenated_stream(self):
        first = self._synthetic(0.0)
        second = self._synthetic(4.0)
        merged = first.merge(second)
        assert merged.lag_samples == 80
        assert merged.latencies.sketches["A"].moments.count == 80
        moments = merged.lags.sketches["A"]
        assert moments.count == 80
        # Both windows' lag streams are (i+1)*0.1 for A: exact merge.
        expected = np.concatenate([np.arange(1, 41) * 0.1] * 2)
        assert moments.mean == pytest.approx(np.mean(expected))
        assert moments.std == pytest.approx(np.std(expected))

    def test_exact_merge_concatenates_raw_values_bit_for_bit(self):
        exact = CAPACITIES["exact"]
        first = self._synthetic(0.0, capacities=exact)
        second = self._synthetic(4.0, capacities=exact)
        # A tenant only the second window sees.
        second.observe_sample(8.1, {"C": 1.0}, {"C": 0.25})
        merged = first.merge(second)
        assert not merged.latencies.sketches and not merged.lags.sketches
        assert merged.latencies.raw["A"] == (
            first.latencies.raw["A"] + second.latencies.raw["A"]
        )
        assert merged.lags.raw["A"] == first.lags.raw["A"] + second.lags.raw["A"]
        assert list(merged.lags.raw["C"]) == [0.0] * 80 + [0.75]
        # ... so the statistics are the numpy calls over the union.
        union = list(first.latencies.raw["A"]) + list(second.latencies.raw["A"])
        assert RunMetrics(merged).latency_stats("A") == latency_stats(union)
        lag = np.array(list(first.lags.raw["B"]) + list(second.lags.raw["B"]))
        assert RunMetrics(merged).lag_sigma("B", 2.0) == float(np.std(lag / 2.0))

    def test_merge_partials_folds_in_order(self):
        partials = [self._synthetic(float(i) * 4.0) for i in range(3)]
        merged = merge_partials(partials)
        assert merged.lag_samples == 120
        assert merge_partials([partials[0]]) is partials[0]
        with pytest.raises(ConfigurationError):
            merge_partials([])

    def test_merge_backfills_disjoint_tenants(self):
        first = MetricsPartial(sample_interval=0.1)
        second = MetricsPartial(sample_interval=0.1)
        first.observe_sample(0.1, {"A": 2.0}, {"A": 2.0})
        second.observe_sample(0.2, {"B": 3.0}, {"B": 3.0})
        merged = first.merge(second)
        # A tenant absent from one window contributes zero lag there,
        # matching the exact store's zero-backfill.
        assert merged.lags.sketches["A"].count == 2
        assert merged.lags.sketches["B"].count == 2
        assert merged.lags.sketches["B"].mean == pytest.approx(0.0)

    def test_shift_times_moves_all_clocks(self):
        partial = self._synthetic(0.0, samples=3)
        partial.dispatch_log.append(
            DispatchRecord(0, "A", "x", 1.0, start=0.05, end=0.15)
        )
        partial.shift_times(10.0)
        assert partial.series.times[0] == pytest.approx(10.1)
        assert partial.gini.items()[0][0] == pytest.approx(10.1)
        record = partial.dispatch_log[0]
        assert record.start == pytest.approx(10.05)
        assert record.end == pytest.approx(10.15)


class TestRawUntilCapacity:
    def test_zero_capacity_latency_matches_digest_and_moments(self):
        values = make_rng(8, "latency").lognormal(-3.0, 1.0, size=3000).tolist()
        partial = MetricsPartial(0.1, capacities=_capacities(latency=0))
        digest, moments = QuantileDigest(), StreamingMoments()
        for chunk in range(0, len(values), 250):
            for value in values[chunk:chunk + 250]:
                _add_latency(partial, "A", value)
                digest.add(value)
                moments.add(value)
            partial.enforce_capacities()
        stats = RunMetrics(partial).latency_stats("A")
        assert stats.count == moments.count
        assert stats.mean == moments.mean
        assert stats.maximum == moments.maximum
        for q, got in ((0.01, stats.p1), (0.50, stats.p50), (0.99, stats.p99)):
            assert got == digest.quantile(q)

    def test_zero_capacity_lag_matches_moments(self):
        partial = MetricsPartial(0.1, capacities=_capacities(lag=0))
        moments = {"A": StreamingMoments(), "B": StreamingMoments()}
        for i in range(50):
            actual = {"A": i * 1.5}
            if i >= 20:
                actual["B"] = (i - 20) * 0.5
            gps = {tenant: value * 0.9 for tenant, value in actual.items()}
            partial.observe_sample(i * 0.1, actual, gps)
            if i == 20:
                moments["B"].add_zeros(20)
            for tenant, value in actual.items():
                moments[tenant].add(value - gps[tenant])
            partial.enforce_capacities()
        metrics = RunMetrics(partial)
        for tenant in ("A", "B"):
            assert metrics.lag_sigma(tenant) == moments[tenant].std
            assert metrics.lag_sigma(tenant, 4.0) == moments[tenant].std / 4.0

    def test_folds_only_past_capacity(self):
        store = TenantValues(3, LatencySketch)
        store.raw["A"] = [1.0, 2.0, 3.0]
        store.fold()
        assert store.raw["A"] == [1.0, 2.0, 3.0] and not store.sketches
        store.raw["A"].append(4.0)
        store.fold()
        assert store.raw["A"] == []
        assert store.sketches["A"].moments.count == 4
        store.raw["A"].append(5.0)
        store.fold()
        assert store.sketches["A"].moments.count == 5

    def test_latencies_raise_once_folded(self):
        partial = MetricsPartial(0.1, capacities=_capacities(latency=2))
        for value in (0.1, 0.2):
            _add_latency(partial, "A", value)
        assert RunMetrics(partial).latencies == {"A": [0.1, 0.2]}
        _add_latency(partial, "A", 0.3)
        with pytest.raises(ConfigurationError, match="latency_stats"):
            RunMetrics(partial).latencies
        assert RunMetrics(partial).latency_stats("A").count == 3

    def test_streaming_run_has_no_raw_latencies(self):
        streaming = _run_collector("streaming").result()
        with pytest.raises(ConfigurationError):
            streaming.latencies


def _stable_specs(n=4):
    return [
        TenantSpec(
            f"T{i}",
            api_costs={"get": LogNormalCost(median=0.01, sigma_decades=0.2)},
            arrivals=PoissonArrivals(rate=50.0),
        )
        for i in range(n)
    ]


def _stable_config(**overrides):
    base = dict(
        name="shardtest",
        schedulers=("2dfq",),
        num_threads=4,
        thread_rate=1.0,
        duration=4.0,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestTimeSharding:
    def test_sharded_matches_unsharded_streaming(self):
        specs = _stable_specs()
        config = _stable_config()
        whole = run_single(
            "2dfq", specs, dataclasses.replace(config, metrics_mode="streaming")
        )
        sharded = run_time_sharded("2dfq", specs, config, num_shards=2)
        for tenant in ("T0", "T1"):
            ws, ss = whole.latency_stats(tenant), sharded.latency_stats(tenant)
            # Boundary truncation may drop the handful of requests in
            # flight when a shard's window closes.
            assert ss.count >= ws.count - 10
            assert ss.p50 == pytest.approx(ws.p50, rel=0.1)
            assert ss.p99 == pytest.approx(ws.p99, rel=0.25)
            assert sharded.lag_sigma(tenant, reference_rate=1.0) == (
                pytest.approx(whole.lag_sigma(tenant, reference_rate=1.0), rel=0.2)
            )
        assert sharded.gini_mean == pytest.approx(whole.gini_mean, abs=0.05)
        assert sharded.partial.lag_samples == whole.partial.lag_samples

    def test_single_shard_is_plain_streaming_run(self):
        specs = _stable_specs(2)
        config = _stable_config(duration=2.0)
        whole = run_single(
            "2dfq", specs, dataclasses.replace(config, metrics_mode="streaming")
        )
        sharded = run_time_sharded("2dfq", specs, config, num_shards=1)
        stats_w, stats_s = whole.latency_stats("T0"), sharded.latency_stats("T0")
        assert stats_s.count == stats_w.count
        assert stats_s.p50 == pytest.approx(stats_w.p50)

    def test_rejects_closed_loop_specs(self):
        from repro.workloads import Backlogged

        specs = _stable_specs(2)
        specs.append(
            TenantSpec(
                "C",
                api_costs={"get": LogNormalCost(median=0.01, sigma_decades=0.2)},
                arrivals=Backlogged(window=2),
            )
        )
        with pytest.raises(ConfigurationError, match="closed-loop"):
            run_time_sharded("2dfq", specs, _stable_config(), num_shards=2)

    def test_rejects_warmup_spanning_shards(self):
        config = _stable_config(duration=4.0, warmup=3.0)
        with pytest.raises(ConfigurationError, match="warmup"):
            run_time_sharded("2dfq", _stable_specs(), config, num_shards=2)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            run_time_sharded("2dfq", _stable_specs(), _stable_config(), 0)

    def test_slice_trace_rebases_times(self):
        trace = generate_trace(_stable_specs(2), 2.0, seed=3)
        cut = slice_trace(trace, 1.0, 2.0)
        assert all(0.0 <= r.time < 1.0 for r in cut)
        kept = [r for r in trace if 1.0 <= r.time < 2.0]
        assert len(cut) == len(kept)
        with pytest.raises(ConfigurationError):
            slice_trace(trace, 2.0, 1.0)

    def test_shard_cells_pickle(self):
        from repro.parallel import TimeShardSpec

        trace = generate_trace(_stable_specs(2), 1.0, seed=3)
        cell = TimeShardSpec(
            scheduler="2dfq",
            config=_stable_config(duration=1.0),
            trace=tuple(trace),
            shard_index=0,
            num_shards=2,
        )
        clone = pickle.loads(pickle.dumps(cell))
        assert clone.label() == cell.label()
        assert clone.start_time == 0.0


class TestConfigPlumbing:
    def test_metrics_mode_validated(self):
        with pytest.raises(ConfigurationError, match="metrics_mode"):
            _stable_config(metrics_mode="bogus")

    def test_streaming_mode_flows_through_run_single(self):
        config = _stable_config(duration=1.0, metrics_mode="streaming")
        metrics = run_single("2dfq", _stable_specs(2), config)
        assert isinstance(metrics, RunMetrics)
        assert metrics.partial.capacities == CAPACITIES["streaming"]

    def test_figures_cli_flag_sets_mode(self):
        import argparse

        from repro.figures import _flagged

        config = _stable_config(duration=1.0)
        args = argparse.Namespace(
            fault_plan_obj=None, validate=False, metrics="streaming"
        )
        assert _flagged(config, args).metrics_mode == "streaming"
        args_default = argparse.Namespace(
            fault_plan_obj=None, validate=False, metrics="exact"
        )
        assert _flagged(config, args_default) is config
