"""The figure reductions keep every bit (DESIGN.md §13, "Figure
reductions").

Each per-run reduction is one vectorized pass over all tenants or all
dispatch records, and each must give the bits of the per-tenant numpy
call or per-record loop it replaced:

* :func:`percentiles` / :func:`quantiles` against ``np.percentile`` /
  ``np.quantile`` (numpy's default ``linear`` method), with ties, NaN
  input and out-of-range ``q``; and every caller routed through them;
* :meth:`RunMetrics.lag_sigmas` against one :func:`lag_std` per tenant,
  over ragged lag rows;
* ``thread_cost_partition`` and ``occupancy_expensive_fraction``
  against the per-record loops they replaced, copied here; a thread id
  outside ``range(num_threads)`` raises instead of being folded in.
"""

import struct
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.expensive_requests import occupancy_expensive_fraction
from repro.experiments.production import LagCDF, fixed_cost_lag_ranges
from repro.metrics import (
    DispatchRecord,
    MetricsPartial,
    RunMetrics,
    cost_summary,
    latency_stats,
    percentile_table,
)
from repro.metrics.latency import percentiles, quantiles
from repro.metrics.service import lag_std
from repro.simulator.rng import make_rng
from repro.workloads.trace import TraceRecord, trace_statistics

PERCENTS = (0, 1, 50, 99, 100)


def bits(values):
    return [struct.pack("d", v) for v in np.asarray(values, dtype=float).ravel()]


# n = 1..500 draws from a pool of up to 40 magnitudes over 18 decades,
# so most samples hold ties.
@st.composite
def samples(draw):
    pool = draw(
        st.lists(st.floats(min_value=1e-9, max_value=1e9), min_size=1, max_size=40)
    )
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=500)
    )
    return [pool[i] for i in picks]


class TestPercentiles:
    @settings(max_examples=100, deadline=None)
    @given(samples())
    def test_matches_numpy_bit_for_bit(self, values):
        assert bits(percentiles(values, PERCENTS)) == bits(np.percentile(values, PERCENTS))
        fractions = [p / 100 for p in PERCENTS] + [0.25, 0.75, 1 / 3]
        assert bits(quantiles(values, fractions)) == bits(np.quantile(values, fractions))

    @settings(max_examples=60, deadline=None)
    @given(samples())
    def test_latency_stats_match_numpy(self, values):
        stats = latency_stats(values)
        array = np.asarray(values)
        expected = [array.mean(), *np.percentile(array, [1, 50, 99]), array.max()]
        got = [stats.mean, stats.p1, stats.p50, stats.p99, stats.maximum]
        assert bits(got) == bits(expected)
        assert stats.count == len(values)
        assert all(type(v) is float for v in got)

    def test_percent_grid_on_small_and_large_samples(self):
        rng = make_rng(5, "percent-grid")
        drawn = [
            np.round(rng.lognormal(0.0, 6.0, n), 2).tolist() for n in (127, 128, 129, 500)
        ]
        grid = [p / 8 for p in range(801)]
        for values in [[5.0], [2.0, 1.0], [1.0, 1.0, 3.0], [3.0, 1e-9, 1e9, 7.5]] + drawn:
            assert bits(percentiles(values, grid)) == bits(np.percentile(values, grid))

    def test_nan_in_gives_nan_out(self):
        for values in ([np.nan], [1.0, np.nan, 2.0], [np.nan, 3.0, 1.0, 2.0]):
            got = percentiles(values, PERCENTS)
            assert np.isnan(got).all()
            assert np.isnan(np.percentile(values, PERCENTS)).all()
            assert np.isnan(quantiles(values, (0.5,))).all()
        stats = latency_stats([1.0, np.nan, 2.0])
        assert np.isnan([stats.mean, stats.p1, stats.p50, stats.p99, stats.maximum]).all()

    @pytest.mark.parametrize("p", [-1, 100.5, 101, -1e-9, np.nan, np.inf])
    def test_out_of_range_percent_raises_like_numpy(self, p):
        with pytest.raises(ValueError, match=r"Percentiles must be in the range \[0, 100\]"):
            np.percentile([1.0, 2.0], p)
        with pytest.raises(ValueError, match=r"Percentiles must be in the range \[0, 100\]"):
            percentiles([1.0, 2.0], (50, p))
        with pytest.raises(ValueError, match="Percentiles must be in the range"):
            percentile_table({"A": [1.0, 2.0]}, percentile=p)

    @pytest.mark.parametrize("q", [-0.01, 1.01, np.nan])
    def test_out_of_range_fraction_raises_like_numpy(self, q):
        with pytest.raises(ValueError, match=r"Quantiles must be in the range \[0, 1\]"):
            np.quantile([1.0, 2.0], q)
        with pytest.raises(ValueError, match=r"Quantiles must be in the range \[0, 1\]"):
            quantiles([1.0, 2.0], (q,))

    def test_callers_keep_numpys_bits(self):
        rng = make_rng(3, "figure-reductions")
        costs = rng.lognormal(3.0, 2.0, 997)
        summary = cost_summary(costs)
        assert bits([summary.p1, summary.p50, summary.p99]) == bits(
            np.percentile(costs, [1, 50, 99])
        )
        table = percentile_table({"A": costs.tolist(), "B": []}, percentile=99.9)
        assert bits([table["A"]]) == bits([np.percentile(costs, 99.9)])
        assert np.isnan(table["B"])
        values = np.sort(costs)
        cdf = LagCDF("x", values, np.arange(1, values.size + 1) / values.size)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            assert bits([cdf.quantile(q)]) == bits([np.quantile(values, q)])
        trace = [TraceRecord(float(i), "T", "a", c) for i, c in enumerate(costs.tolist())]
        stats = trace_statistics(trace)
        assert bits([stats["cost_p50"], stats["cost_p99"]]) == bits(
            np.percentile(costs, [50, 99])
        )

    def test_fixed_cost_lag_ranges_keep_numpys_bits(self):
        rng = make_rng(4, "fixed-cost-lags")
        partial = MetricsPartial(sample_interval=0.1)
        for k in range(250):
            actual = {t: float(rng.lognormal(5.0, 1.0)) for t in ("t1", "t5", "R1")}
            gps = {t: float(rng.lognormal(5.0, 1.0)) for t in ("t1", "t5")}
            partial.series.observe(0.1 * k, actual, gps)
        run = RunMetrics(partial)
        result = SimpleNamespace(runs={"2dfq": run})
        ranges = fixed_cost_lag_ranges(result, reference_rate=7.0)["2dfq"]
        assert list(ranges) == ["t1", "t5"]
        for tenant, got in ranges.items():
            lag = run.service_series(tenant).lag_seconds(7.0)
            assert bits(got) == bits(np.percentile(lag, [1, 99]))


def _ragged_run(seed):
    """A store whose lag rows have many lengths: tenants join late and
    drop out of samples (partial dicts), across numpy's pairwise-sum
    block edges."""
    rng = make_rng(seed, "ragged-lags")
    partial = MetricsPartial(sample_interval=0.1)
    names = [f"T{i}" for i in range(40)]
    joins = rng.integers(0, 300, len(names))
    leaves = joins + rng.integers(1, 300, len(names))
    for k in range(320):
        present = [t for t, j, e in zip(names, joins, leaves) if j <= k < e]
        actual = {t: float(rng.lognormal(0.0, 3.0)) * k for t in present}
        gps = {t: float(rng.lognormal(0.0, 3.0)) * k for t in present[::2]}
        partial.series.observe(0.1 * k, actual, gps)
    return RunMetrics(partial)


class TestLagSigmas:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("rate", [None, 3.0, 7, 1e-3])
    def test_matches_one_lag_std_per_tenant(self, seed, rate):
        run = _ragged_run(seed)
        lags = run.partial.series.lags
        assert len({len(row) for row in lags.values()}) > 10
        got = run.lag_sigmas(reference_rate=rate)
        assert list(got) == run.tenants()
        expected = [lag_std(np.array(lags[t]), rate) for t in got]
        assert bits(list(got.values())) == bits(expected)
        assert all(type(v) is float for v in got.values())

    def test_explicit_tenants_with_unknown_names(self):
        run = _ragged_run(2)
        names = ["nobody", "T3", "T3", "T0", "", "T39"]
        got = run.lag_sigmas(names, reference_rate=2.0)
        assert list(got) == ["nobody", "T3", "T0", "", "T39"]
        assert got["nobody"] == got[""] == 0.0
        for tenant in ("T3", "T0", "T39"):
            assert bits([got[tenant]]) == bits([run.lag_sigma(tenant, 2.0)])
        assert run.lag_sigmas([]) == {}
        assert RunMetrics(MetricsPartial(0.1)).lag_sigmas(["A"]) == {"A": 0.0}

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
    def test_bad_rate_raises_even_without_rows(self, rate):
        with pytest.raises(ValueError, match="reference_rate must be positive"):
            RunMetrics(MetricsPartial(0.1)).lag_sigmas(["A"], reference_rate=rate)


# -- the per-record loops the dispatch-log reductions replaced ----------------


def loop_thread_cost_partition(log, num_threads):
    sums = [0.0] * num_threads
    counts = [0.0] * num_threads
    for thread_id, _, _, cost, start, end in log:
        duration = end - start
        sums[thread_id] += np.log10(max(cost, 1e-12)) * duration
        counts[thread_id] += duration
    with np.errstate(invalid="ignore"):
        means = np.array(sums) / np.array(counts)
    return means


def loop_occupancy_expensive_fraction(log, num_threads, cost_threshold=100.0):
    busy_time = [0.0] * num_threads
    expensive_time = [0.0] * num_threads
    for thread_id, _, _, cost, start, end in log:
        duration = end - start
        busy_time[thread_id] += duration
        if cost >= cost_threshold:
            expensive_time[thread_id] += duration
    busy = np.array(busy_time)
    expensive = np.array(expensive_time)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(busy > 0, expensive / busy, 0.0)


def _run(log):
    partial = MetricsPartial(0.1)
    # The store's log is flat: each record's values in field order.
    partial.dispatch_log.extend(chain.from_iterable(log))
    return RunMetrics(partial)


def _random_log(seed, records, num_threads):
    """Records in dispatch order; thread 0 stays idle, costs span zero
    and 1e-13..1e7, some records take no time."""
    rng = make_rng(seed, "dispatch-log")
    log = []
    now = 0.0
    for _ in range(records):
        now += float(rng.exponential(0.01))
        cost = float(10.0 ** rng.uniform(-13, 7)) if rng.random() > 0.05 else 0.0
        duration = 0.0 if rng.random() < 0.05 else float(rng.exponential(0.5))
        thread = int(rng.integers(1, num_threads))
        log.append(DispatchRecord(thread, "T", "a", cost, now, now + duration))
    return log


class TestDispatchReductions:
    @pytest.mark.parametrize(
        "log,num_threads",
        [
            ([], 4),
            ([], 0),
            ([DispatchRecord(1, "T", "a", 0.0, 0.0, 2.0)], 3),
            ([DispatchRecord(0, "T", "a", 0.0, 1.0, 1.0)], 2),
            (_random_log(0, 3000, 16), 16),
            (_random_log(1, 500, 3), 3),
        ],
    )
    def test_match_the_per_record_loops(self, log, num_threads):
        run = _run(log)
        got = run.thread_cost_partition(num_threads)
        assert bits(got) == bits(loop_thread_cost_partition(log, num_threads))
        if log and num_threads > 2:
            assert np.isnan(got[0])  # the idle thread
        for threshold in (100.0, 0.0, 1e-12):
            assert bits(occupancy_expensive_fraction(run, num_threads, threshold)) == bits(
                loop_occupancy_expensive_fraction(log, num_threads, threshold)
            )

    @pytest.mark.parametrize("thread", [-1, 4, 7])
    def test_thread_id_outside_the_pool_raises(self, thread):
        # Thread -1 used to be folded into the last thread silently, and
        # an id past the end raised a bare IndexError.
        bad = DispatchRecord(thread, "T", "a", 5.0, 1.0, 2.0)
        run = _run([DispatchRecord(0, "T", "a", 5.0, 0.0, 1.0), bad])
        pattern = rf"dispatch record 1 .*thread_id {thread}.*range\(num_threads=4\)"
        with pytest.raises(ValueError, match=pattern):
            run.thread_cost_partition(4)
        with pytest.raises(ValueError, match=pattern):
            occupancy_expensive_fraction(run, 4)
