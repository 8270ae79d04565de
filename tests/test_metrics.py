"""Unit tests for metrics: service series, latency, summaries, collector
and the exact per-run store."""

import pickle

import numpy as np
import pytest

from repro.core import make_scheduler
from repro.metrics import (
    MetricsCollector,
    MetricsPartial,
    RunMetrics,
    ServiceRecorder,
    ServiceSeries,
    cost_summary,
    latency_stats,
    speedup,
)
from repro.metrics.latency import percentile_table
from repro.metrics.summary import cdf_points, coefficient_of_variation
from repro.simulator import BackloggedSource, Simulation, ThreadPoolServer

#: Reference rates that cannot convert cost units to seconds.
BAD_RATES = (0.0, -2.0, float("nan"), float("inf"))


class TestServiceSeries:
    def _series(self):
        times = np.array([0.1, 0.2, 0.3, 0.4])
        actual = np.array([1.0, 2.0, 2.0, 4.0])
        gps = np.array([1.0, 2.0, 3.0, 4.0])
        return ServiceSeries("T", times, actual, gps)

    def _metrics(self):
        """The same series as a run's store: sigma(lag) of ``T`` is that
        of ``_series``."""
        series = self._series()
        partial = MetricsPartial(sample_interval=0.1)
        for t, actual, gps in zip(series.times, series.actual, series.gps):
            partial.series.observe(t, {"T": actual}, {"T": gps})
        return RunMetrics(partial)

    def test_service_rate(self):
        series = self._series()
        assert series.service_rate() == pytest.approx([1.0, 1.0, 0.0, 2.0])

    def test_lag_units_sign_convention(self):
        # Positive = ahead of GPS.
        series = self._series()
        assert series.lag_units() == pytest.approx([0.0, 0.0, -1.0, 0.0])

    def test_lag_seconds(self):
        series = self._series()
        assert series.lag_seconds(10.0) == pytest.approx([0.0, 0.0, -0.1, 0.0])
        for rate in BAD_RATES:
            with pytest.raises(ValueError, match="reference_rate must be positive"):
                series.lag_seconds(rate)

    def test_lag_sigma(self):
        series = self._series()
        expected = np.std([0.0, 0.0, -1.0, 0.0])
        assert series.lag_sigma() == pytest.approx(expected)
        assert series.lag_sigma(2.0) == pytest.approx(expected / 2.0)
        metrics = self._metrics()
        assert metrics.lag_sigma("T") == series.lag_sigma()
        assert metrics.lag_sigma("T", 2.0) == series.lag_sigma(2.0)
        # A zero, negative or non-finite rate used to yield nan (or, for
        # a negative rate, a plausible positive sigma) instead of failing
        # like lag_seconds.
        for rate in BAD_RATES:
            with pytest.raises(ValueError, match="reference_rate must be positive"):
                series.lag_sigma(rate)
            with pytest.raises(ValueError, match="reference_rate must be positive"):
                metrics.lag_sigma("T", rate)
            with pytest.raises(ValueError, match="reference_rate must be positive"):
                metrics.lag_sigmas(reference_rate=rate)


class TestUnboundedServiceSeries:
    """The collector's service recorder keeps every sample."""

    def test_backfills_late_tenants(self):
        recorder = ServiceRecorder()
        recorder.observe(0.1, {"A": 1.0}, {"A": 1.0})
        recorder.observe(0.2, {"A": 2.0, "B": 5.0}, {"A": 2.0, "B": 4.0})
        series_b = recorder.service_series("B")
        assert series_b.actual == pytest.approx([0.0, 5.0])
        assert series_b.gps == pytest.approx([0.0, 4.0])

    def test_pads_missing_trailing_samples(self):
        recorder = ServiceRecorder()
        recorder.observe(0.1, {"A": 1.0, "B": 2.0}, {})
        recorder.observe(0.2, {"A": 2.0}, {})
        series_b = recorder.service_series("B")
        assert series_b.actual == pytest.approx([2.0, 2.0])

    def test_tenants_sorted(self):
        recorder = ServiceRecorder()
        recorder.observe(0.1, {"B": 1.0, "A": 1.0}, {})
        assert recorder.tenants() == ["A", "B"]

    def test_never_decimates(self):
        recorder = ServiceRecorder()
        for i in range(5000):
            recorder.observe(i * 0.1, {"A": float(i)}, {"A": float(i)})
        times, actual, gps = recorder.columns("A")
        assert times.tolist() == [i * 0.1 for i in range(5000)]
        assert actual.tolist() == gps.tolist() == [float(i) for i in range(5000)]


class TestLatencyStats:
    def test_empty(self):
        stats = latency_stats([])
        assert stats.empty
        assert np.isnan(stats.p99)

    def test_percentiles(self):
        samples = list(np.linspace(0.0, 1.0, 101))
        stats = latency_stats(samples)
        assert stats.count == 101
        assert stats.p50 == pytest.approx(0.5)
        assert stats.p99 == pytest.approx(0.99)
        assert stats.maximum == 1.0

    def test_percentile_table(self):
        table = percentile_table({"A": [1.0, 2.0], "B": []}, percentile=50)
        assert table["A"] == pytest.approx(1.5)
        assert np.isnan(table["B"])


class TestSpeedup:
    def test_paper_convention(self):
        # §6.2.2 example: 4.5ms baseline vs 3.3ms improved -> ~1.4x.
        assert speedup(0.0045, 0.0033) == pytest.approx(1.36, abs=0.01)

    def test_slowdown_is_negative(self):
        assert speedup(1.0, 2.0) == pytest.approx(-2.0)

    def test_parity(self):
        assert speedup(1.0, 1.0) == pytest.approx(1.0)

    def test_nan_inputs(self):
        assert np.isnan(speedup(float("nan"), 1.0))
        assert np.isnan(speedup(1.0, 0.0))


class TestSummaries:
    def test_cost_summary_decades(self):
        samples = [100.0] * 50 + [1.0e6] * 50
        summary = cost_summary(samples)
        assert summary.decades_of_spread() == pytest.approx(4.0, abs=0.1)

    def test_cov(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0
        assert np.isnan(coefficient_of_variation([]))

    def test_cdf_points(self):
        values, freq = cdf_points({"a": 3.0, "b": 1.0, "c": float("nan")})
        assert values == pytest.approx([1.0, 3.0])
        assert freq == pytest.approx([0.5, 1.0])


class TestCollector:
    def _run(self, scheduler_name="wfq", duration=2.0):
        sim = Simulation()
        scheduler = make_scheduler(scheduler_name, num_threads=2, thread_rate=10.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=2, rate=10.0, refresh_interval=None
        )
        collector = MetricsCollector(server, sample_interval=0.1)
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=2).start()
        BackloggedSource(server, "B", lambda: ("y", 5.0), window=2).start()
        sim.run(until=duration)
        return collector.result()

    def test_service_sampling(self):
        result = self._run()
        assert set(result.tenants()) == {"A", "B"}
        series = result.service_series("A")
        assert series.times.size == 20
        assert series.actual[-1] > 0
        # Total service is capacity-bounded.
        total = result.service_series("A").actual[-1] + result.service_series(
            "B"
        ).actual[-1]
        assert total <= 2 * 10.0 * 2.0 + 1e-6

    def test_gps_tracks_equal_share(self):
        result = self._run()
        a = result.service_series("A")
        # Two equal backlogged tenants: GPS gives each half of capacity.
        assert a.gps[-1] == pytest.approx(2.0 * 10.0 * 2.0 / 2, rel=0.05)

    def test_latencies_recorded(self):
        result = self._run()
        assert result.latency_stats("A").count > 0
        assert result.latency_p99("A") > 0

    def test_dispatch_log_and_occupancy(self):
        result = self._run()
        log = result.dispatch_log
        assert log
        # Both threads ran work, each record a positive-cost interval.
        assert {record.thread_id for record in log} == {0, 1}
        assert all(record.cost > 0 and record.start < record.end for record in log)

    def test_partition_measure_under_2dfq(self):
        result = self._run("2dfq")
        means = result.thread_cost_partition(2)
        # Thread 0 runs the expensive requests under 2DFQ.
        assert means[0] > means[1]

    def test_gini_sampled(self):
        result = self._run()
        assert result.gini_values.size > 0
        assert (result.gini_values >= 0).all()
        assert (result.gini_values <= 1).all()

    def test_warmup_excludes_early_samples(self):
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1, thread_rate=10.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, rate=10.0, refresh_interval=None
        )
        collector = MetricsCollector(server, sample_interval=0.1, warmup=1.0)
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=1).start()
        sim.run(until=2.0)
        result = collector.result()
        assert result.service_series("A").times.min() >= 1.0

    def _warmup_run(self, warmup):
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1, thread_rate=10.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, rate=10.0, refresh_interval=None
        )
        collector = MetricsCollector(
            server, sample_interval=0.1, warmup=warmup
        )
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=1).start()
        BackloggedSource(server, "B", lambda: ("y", 1.0), window=1).start()
        sim.run(until=2.0)
        return collector.result()

    def test_warmup_excludes_latency_samples(self):
        full = self._warmup_run(warmup=0.0)
        trimmed = self._warmup_run(warmup=1.0)
        # Only completions at t >= warmup count; roughly half survive.
        assert 0 < trimmed.latency_stats("A").count < full.latency_stats("A").count
        # Warmup spanning the whole run leaves no latency samples.
        assert self._warmup_run(warmup=2.5).latency_stats("A").empty

    def test_warmup_excludes_gini_samples(self):
        full = self._warmup_run(warmup=0.0)
        trimmed = self._warmup_run(warmup=1.0)
        assert 0 < trimmed.gini_values.size < full.gini_values.size
        assert trimmed.gini_times.min() >= 1.0

    def test_record_dispatches_off_yields_empty_log(self):
        # Regression: the log must actually stay empty (and not merely
        # start empty) when dispatch recording is disabled.
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1, thread_rate=10.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, rate=10.0, refresh_interval=None
        )
        collector = MetricsCollector(
            server, sample_interval=0.1, record_dispatches=False
        )
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=1).start()
        sim.run(until=1.0)
        result = collector.result()
        assert len(result.dispatch_log) == 0
        assert result.partial.dispatch_log == []
        # The rest of the metrics are unaffected.
        assert result.latency_stats("A").count > 0

    def test_invalid_interval(self):
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, refresh_interval=None
        )
        with pytest.raises(ValueError):
            MetricsCollector(server, sample_interval=0.0)

    @pytest.mark.parametrize(
        "settings",
        [
            {"sample_interval": float("inf")},
            {"sample_interval": float("nan")},
            {"warmup": float("nan")},
            {"warmup": float("inf")},
            {"warmup": -0.5},
        ],
    )
    def test_rejects_sampling_that_records_nothing(self, settings):
        # A NaN warmup used to fail every `t >= warmup` test (no sample,
        # no latency), an infinite interval never sampled, and a NaN one
        # failed later inside the event loop.
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=1)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=1, refresh_interval=None
        )
        with pytest.raises(ValueError):
            MetricsCollector(server, **settings)

    def test_service_rate_has_no_warmup_spike(self):
        # Regression: with a warmup, the first post-warmup sample used to
        # difference against 0, so the first service_rate entry was the
        # entire pre-warmup cumulative service.  The retained pre-warmup
        # baseline keeps every entry a one-interval quantity.
        result = self._warmup_run(warmup=1.0)
        rate = result.service_series("A").service_rate()
        # One 0.1 s interval at a 10 units/s thread can deliver at most
        # ~1 unit of service (plus boundary slop); the old bug produced
        # a first entry near the ~5 units accumulated during warmup.
        assert rate[0] <= 10.0 * 0.1 + 0.5
        assert np.max(rate) <= 10.0 * 0.1 + 0.5

    def test_warmup_on_sample_boundary_keeps_boundary_sample(self):
        # warmup exactly on the sampling grid: the t == warmup sample is
        # post-warmup (t >= warmup), and the sample just before it
        # becomes the baseline.
        result = self._warmup_run(warmup=0.5)
        times = result.service_series("A").times
        assert times.min() == pytest.approx(0.5)
        result_past = self._warmup_run(warmup=0.55)
        assert result_past.service_series("A").times.min() == pytest.approx(0.6)


def _late_joiner_run(warmup=0.0):
    """2DFQ over two backlogged tenants plus ``late``, whose source
    starts at t=1.0; returns the run's metrics."""
    sim = Simulation()
    scheduler = make_scheduler("2dfq", num_threads=2, thread_rate=10.0)
    server = ThreadPoolServer(
        sim, scheduler, num_threads=2, rate=10.0, refresh_interval=None
    )
    collector = MetricsCollector(server, sample_interval=0.1, warmup=warmup)
    costs = iter([1.0, 5.0, 0.5, 2.0] * 1000)
    BackloggedSource(server, "A", lambda: ("x", 1.0), window=2).start()
    BackloggedSource(server, "B", lambda: ("y", next(costs)), window=2).start()
    BackloggedSource(
        server, "late", lambda: ("z", 0.5), window=1, start_time=1.0
    ).start()
    sim.run(until=2.0)
    return collector.result()


class TestExactStore:
    def test_late_tenant_lag_is_zero_filled(self):
        partial = MetricsPartial(sample_interval=0.1)
        lags = {"A": [], "B": []}
        for i in range(10):
            actual = {"A": i * 1.5}
            if i >= 4:
                actual["B"] = (i - 4) * 0.5
            gps = {tenant: value * 0.9 for tenant, value in actual.items()}
            partial.series.observe(i * 0.1, actual, gps)
            for tenant in lags:
                if tenant in actual:
                    lags[tenant].append(actual[tenant] - gps[tenant])
        padded_b = np.array([0.0] * 4 + lags["B"])
        metrics = RunMetrics(partial)
        assert metrics.lag_sigma("A") == np.std(np.array(lags["A"]))
        assert metrics.lag_sigma("B") == np.std(padded_b)
        assert metrics.lag_sigma("B", 4.0) == np.std(padded_b / 4.0)

    def test_late_tenant_in_a_run(self):
        run = _late_joiner_run()
        series = run.service_series("late")
        lag = series.lag_units()
        joined = int(np.argmax(series.actual > 0))
        assert joined > 0 and not lag[:joined].any()
        assert run.lag_sigma("late") == np.std(lag)
        assert run.lag_sigma("late", 5.0) == np.std(lag / 5.0)

    def test_completed_matches_latency_lists(self):
        run = _late_joiner_run(warmup=0.5)
        total = sum(len(values) for values in run.latencies.values())
        assert run.completed() == total > 0
        for tenant in ("A", "B", "late"):
            count = len(run.latencies[tenant])
            assert run.completed(tenant) == run.latency_stats(tenant).count == count
        assert run.completed("nobody") == 0

    def test_run_metrics_pickle_round_trip(self):
        run = _late_joiner_run(warmup=0.5)
        clone = pickle.loads(pickle.dumps(run))
        assert clone.tenants() == run.tenants()
        assert clone.lag_sigmas() == run.lag_sigmas()
        assert clone.lag_sigmas(reference_rate=5.0) == run.lag_sigmas(
            reference_rate=5.0
        )
        assert clone.latencies == run.latencies
        for tenant in run.tenants():
            assert clone.latency_stats(tenant) == run.latency_stats(tenant)
            ours, theirs = run.service_series(tenant), clone.service_series(tenant)
            assert theirs.times.tolist() == ours.times.tolist()
            assert theirs.actual.tolist() == ours.actual.tolist()
            assert theirs.gps.tolist() == ours.gps.tolist()
            assert theirs.baseline == ours.baseline
        assert clone.gini_times.tolist() == run.gini_times.tolist()
        assert clone.gini_values.tolist() == run.gini_values.tolist()
        assert list(clone.dispatch_log) == list(run.dispatch_log)
        assert clone.completed() == run.completed()
