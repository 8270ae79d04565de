"""Tests for the experiment harness (scaled-down runs)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.expensive_requests import (
    SMALL_PROBE,
    expensive_requests_config,
    occupancy_expensive_fraction,
    run_expensive_requests,
    sigma_vs_expensive,
    small_tenant_series,
)
from repro.experiments.report import format_named_series, format_table, sparkline
from repro.experiments.runner import run_comparison, run_single
from repro.experiments.suite import (
    SuiteParameters,
    run_suite,
    sample_experiment,
)
from repro.parallel import RunCache
from repro.workloads.synthetic import expensive_requests_population


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                name="x", schedulers=(), num_threads=2, thread_rate=1.0,
                duration=1.0,
            )
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                name="x", schedulers=("wfq",), num_threads=0, thread_rate=1.0,
                duration=1.0,
            )
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                name="x", schedulers=("wfq",), num_threads=1, thread_rate=1.0,
                duration=1.0, warmup=1.0,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_interval", 0.0),
            ("sample_interval", -0.1),
            ("sample_interval", float("nan")),
            ("sample_interval", float("inf")),
            ("duration", float("nan")),
            ("duration", float("inf")),
            ("thread_rate", float("nan")),
            ("thread_rate", float("inf")),
            ("warmup", float("nan")),
            ("refresh_interval", float("nan")),
            ("refresh_interval", float("inf")),
        ],
    )
    def test_non_finite_and_zero_values_rejected(self, field, value):
        kwargs = dict(
            name="x", schedulers=("wfq",), num_threads=1, thread_rate=1.0,
            duration=1.0,
        )
        kwargs[field] = value
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig(**kwargs)

    def test_initial_estimate_applied_to_e_variants_only(self):
        config = ExperimentConfig(
            name="x", schedulers=("wfq", "wfq-e"), num_threads=1,
            thread_rate=1.0, duration=1.0, initial_estimate=500.0,
        )
        assert config.kwargs_for("wfq") == {}
        assert config.kwargs_for("wfq-e") == {"initial_estimate": 500.0}

    def test_explicit_kwargs_win(self):
        config = ExperimentConfig(
            name="x", schedulers=("wfq-e",), num_threads=1, thread_rate=1.0,
            duration=1.0, initial_estimate=500.0,
            scheduler_kwargs={"wfq-e": {"initial_estimate": 7.0}},
        )
        assert config.kwargs_for("wfq-e") == {"initial_estimate": 7.0}

    def test_capacity(self):
        config = ExperimentConfig(
            name="x", schedulers=("wfq",), num_threads=4, thread_rate=100.0,
            duration=1.0,
        )
        assert config.capacity == 400.0


SMALL_CONFIG = expensive_requests_config(duration=2.0, num_threads=4,
                                         thread_rate=100.0)


class TestRunner:
    def test_run_single_produces_metrics(self):
        specs = expensive_requests_population(num_small=5, total=10)
        metrics = run_single("2dfq", specs, SMALL_CONFIG)
        assert SMALL_PROBE in metrics.tenants()
        assert metrics.latency_stats(SMALL_PROBE).count > 0

    def test_comparison_runs_all_schedulers(self):
        specs = expensive_requests_population(num_small=5, total=10)
        result = run_comparison(specs, SMALL_CONFIG)
        assert result.scheduler_names == ["wfq", "wf2q", "2dfq"]
        assert result.fair_rate() == pytest.approx(400.0 / 10)

    def test_closed_loop_workload_identical_across_schedulers(self):
        """Same seed => identical per-tenant cost sequences.  (The
        *number* dispatched differs per scheduler -- closed loops are
        scheduler-paced -- but each tenant's stream is the same.)"""
        specs = expensive_requests_population(num_small=2, total=4)
        result = run_comparison(specs, SMALL_CONFIG)
        prefix = {}
        for name, run in result.runs.items():
            ordered = sorted(run.dispatch_log, key=lambda r: (r.start, r.thread_id))
            per_tenant = {}
            for record in ordered:
                per_tenant.setdefault(record.tenant_id, []).append(
                    round(record.cost, 9)
                )
            prefix[name] = {t: seq[:10] for t, seq in per_tenant.items()}
        for tenant, seq in prefix["wfq"].items():
            assert prefix["2dfq"][tenant][: len(seq)][: 10] == seq[:10]

    def test_explicit_serial_uncached_keywords(self):
        """``benchmarks/e2e/cells.py`` calls both entry points with
        ``jobs=1, cache=None`` spelled out.  A change that drops or
        renames either keyword must fail here, in tier-1, and not first
        in the end-to-end benchmark run."""
        specs = expensive_requests_population(num_small=2, total=4)
        config = expensive_requests_config(
            schedulers=("wfq", "2dfq"), num_threads=2, thread_rate=100.0,
            duration=0.5,
        )
        compared = run_comparison(specs, config, jobs=1, cache=None)
        expensive = run_expensive_requests(
            num_expensive=2, total_tenants=4, config=config, jobs=1, cache=None
        )
        assert compared.scheduler_names == expensive.scheduler_names
        assert compared["wfq"].latency_stats(SMALL_PROBE).count > 0
        for name in config.schedulers:
            assert compared[name].latencies == expensive[name].latencies


class TestFigure8Experiment:
    def test_shape_sigma_ordering(self):
        """The headline Figure 8 shape at reduced scale: sigma(lag) of a
        small tenant is much lower under 2DFQ than WFQ.  Needs real
        contention -- several tenants per thread, as in the paper's
        100 tenants on 16 threads."""
        config = expensive_requests_config(duration=4.0, num_threads=8)
        result = run_expensive_requests(num_expensive=20, total_tenants=40,
                                        config=config)
        fair = result.fair_rate()
        sigma = {
            name: run.lag_sigma(SMALL_PROBE, reference_rate=fair)
            for name, run in result.runs.items()
        }
        assert sigma["2dfq"] < sigma["wfq"] / 3
        assert sigma["2dfq"] < sigma["wf2q"]

    def test_partitioning_only_under_2dfq(self):
        config = expensive_requests_config(duration=4.0, num_threads=8)
        result = run_expensive_requests(num_expensive=20, total_tenants=40,
                                        config=config)
        frac_2dfq = occupancy_expensive_fraction(result["2dfq"], 8)
        # Under 2DFQ the low-index threads are expensive-dominated and
        # the top threads run (almost) no expensive requests at all.
        assert frac_2dfq[0] > 0.7
        assert frac_2dfq[-1] < 0.1
        # The baselines spread expensive requests over every thread.
        frac_wfq = occupancy_expensive_fraction(result["wfq"], 8)
        assert frac_wfq.min() > 0.2

    def test_series_extraction(self):
        config = expensive_requests_config(duration=2.0)
        result = run_expensive_requests(num_expensive=8, total_tenants=16,
                                        config=config)
        series = small_tenant_series(result)
        for name in ("wfq", "wf2q", "2dfq"):
            assert series[name]["times"].size == 20
            assert series[name]["service_rate"].size == 20

    def test_sigma_sweep_rows(self):
        config = expensive_requests_config(duration=1.0, num_threads=4,
                                           thread_rate=200.0)
        sweep = sigma_vs_expensive(
            expensive_counts=(0, 8), total_tenants=16, config=config
        )
        rows = sweep.rows()
        assert len(rows) == 2
        assert rows[0][0] == 0 and rows[1][0] == 8
        assert all(len(row) == 4 for row in rows)

    def test_sigma_sweep_under_jobs_and_cache_matches_serial(self, tmp_path):
        """The sweep as ``repro.figures fig08 --cache DIR`` runs it: with
        an explicit ``cache=``, cold and warm, the numbers are the
        uncached ones."""
        config = expensive_requests_config(duration=1.0, num_threads=4,
                                           thread_rate=200.0)

        def sweep(cache=None):
            return sigma_vs_expensive(
                expensive_counts=(0, 8, 8), total_tenants=16, config=config,
                cache=cache,
            ).sigmas

        serial = sweep()
        cache = RunCache(tmp_path)
        assert sweep(cache) == serial
        # The repeated count re-hits the runs the first one stored.
        assert (cache.hits, cache.stores) == (3, 6)
        assert sweep(cache) == serial
        assert (cache.hits, cache.misses) == (12, 6)


class TestSuite:
    def test_sampling_is_deterministic_and_in_range(self):
        params = SuiteParameters(num_experiments=5, seed=3)
        a = sample_experiment(2, params)
        b = sample_experiment(2, params)
        assert a == b
        assert params.threads[0] <= a.num_threads <= params.threads[1]
        assert a.num_unpredictable <= a.num_replay

    def test_tiny_suite_runs(self):
        params = SuiteParameters(
            num_experiments=2,
            threads=(2, 4),
            replay_tenants=(5, 10),
            backlogged_tenants=(0, 2),
            expensive_tenants=(0, 2),
            unpredictable_tenants=(0, 5),
            duration=1.0,
            thread_rate=1.0e5,
            seed=1,
        )
        result = run_suite(params, tenants=("T1", "T10"))
        assert len(result.p99) == 2
        speedups = result.speedups("wfq-e", tenants=("T1",))
        assert isinstance(speedups["T1"], list)

    def test_speedup_aggregation(self):
        params = SuiteParameters(num_experiments=1)
        from repro.experiments.suite import SuiteResult

        result = SuiteResult(params=params)
        result.p99 = [
            {"wfq-e": {"T1": 0.01}, "2dfq-e": {"T1": 0.001}},
            {"wfq-e": {"T1": 0.02}, "2dfq-e": {"T1": 0.002}},
            {"wfq-e": {"T1": float("nan")}, "2dfq-e": {"T1": 0.01}},
        ]
        values = result.speedups("wfq-e", tenants=("T1",))["T1"]
        assert values == pytest.approx([10.0, 10.0])
        assert result.median_speedup("wfq-e", "T1") == pytest.approx(10.0)


class TestReport:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2.34567], ["x", 3]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "2.346" in text

    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == " " and line[-1] == "@"
        assert sparkline([]) == ""
        assert sparkline([5.0, 5.0]) == "  "

    def test_named_series(self):
        text = format_named_series("title", {"wfq": [1.0, 2.0], "none": []})
        assert "title" in text
        assert "wfq" in text
        assert "(no data)" in text
