"""Tests for the parallel experiment engine (repro.parallel).

The load-bearing property is the determinism contract (DESIGN.md §10):
for any ``jobs`` and any cache state, results are numerically identical
to a serial, uncached run.  Latency p99 is NaN for tenants that complete
no requests at the scaled-down test durations, so comparisons here are
NaN-aware (``nan != nan`` would otherwise report false drift).
"""

import dataclasses
import json
import math
import pickle
import time
from pathlib import Path

import pytest

from repro.errors import CellExecutionError, ConfigurationError
from repro.experiments.expensive_requests import expensive_requests_config
from repro.experiments.runner import run_comparison
from repro.experiments.suite import SuiteParameters, run_suite
from repro.obs import clear_session, current_session, trace_session
from repro.parallel import (
    CellFailure,
    ExecutionContext,
    RunCache,
    RunSpec,
    current_execution,
    execution_context,
    run_cells,
)
from repro.workloads.synthetic import expensive_requests_population

SMALL_PARAMS = SuiteParameters(
    num_experiments=2,
    threads=(2, 4),
    replay_tenants=(2, 6),
    replay_speed=(0.5, 1.0),
    backlogged_tenants=(2, 4),
    expensive_tenants=(0, 2),
    unpredictable_tenants=(0, 2),
    duration=0.4,
    thread_rate=1000.0,
)


def small_config(schedulers=("wfq", "2dfq"), seed=0):
    return expensive_requests_config(
        schedulers=schedulers, num_threads=2, thread_rate=100.0,
        duration=1.0, seed=seed,
    )


def small_population():
    return expensive_requests_population(num_small=3, total=4)


def assert_p99_equal(a, b):
    """Compare nested p99 dicts treating NaN == NaN."""
    assert len(a) == len(b)
    for left, right in zip(a, b):
        assert left.keys() == right.keys()
        for scheduler in left:
            assert left[scheduler].keys() == right[scheduler].keys()
            for tenant, x in left[scheduler].items():
                y = right[scheduler][tenant]
                assert (math.isnan(x) and math.isnan(y)) or x == y, (
                    scheduler, tenant, x, y,
                )


class TestDeterminism:
    def test_run_comparison_parallel_matches_serial(self):
        config = small_config()
        serial = run_comparison(small_population(), config, jobs=1)
        fanned = run_comparison(small_population(), config, jobs=2)
        assert serial.runs.keys() == fanned.runs.keys()
        for name in serial.runs:
            assert pickle.dumps(serial[name].latencies) == pickle.dumps(
                fanned[name].latencies
            )
            assert pickle.dumps(serial[name].gini_values) == pickle.dumps(
                fanned[name].gini_values
            )

    def test_run_suite_jobs4_matches_serial(self):
        serial = run_suite(SMALL_PARAMS, schedulers=("wfq", "2dfq-e"))
        fanned = run_suite(
            SMALL_PARAMS, schedulers=("wfq", "2dfq-e"), jobs=4
        )
        assert serial.experiments == fanned.experiments
        assert_p99_equal(serial.p99, fanned.p99)

    def test_cached_rerun_matches_cold(self, tmp_path):
        cache = RunCache(tmp_path)
        config = small_config(schedulers=("wfq",))
        cold = run_comparison(small_population(), config, cache=cache)
        assert cache.stores == 1 and cache.hits == 0
        warm = run_comparison(small_population(), config, cache=cache)
        assert cache.hits == 1
        assert pickle.dumps(cold["wfq"].latencies) == pickle.dumps(
            warm["wfq"].latencies
        )

    def test_cache_shared_across_jobs_settings(self, tmp_path):
        """A cache warmed serially must hit when re-read with jobs > 1."""
        cache = RunCache(tmp_path)
        config = small_config()
        run_comparison(small_population(), config, jobs=1, cache=cache)
        before = cache.hits
        run_comparison(small_population(), config, jobs=2, cache=cache)
        assert cache.hits == before + len(config.schedulers)


class TestExecutionContext:
    def test_default_is_serial_uncached(self):
        ctx = current_execution()
        assert ctx.jobs == 1 and ctx.cache is None

    def test_context_sets_and_restores(self, tmp_path):
        cache = RunCache(tmp_path)
        with execution_context(jobs=3, cache=cache):
            assert current_execution() == ExecutionContext(3, cache)
            with execution_context(jobs=1):
                assert current_execution().jobs == 1
            assert current_execution().jobs == 3
        assert current_execution().jobs == 1

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            with execution_context(jobs=0):
                pass

    def test_context_drives_run_comparison(self, tmp_path):
        cache = RunCache(tmp_path)
        config = small_config(schedulers=("wfq",))
        with execution_context(jobs=2, cache=cache):
            run_comparison(small_population(), config)
        assert cache.stores == 1


class TestTraceSemantics:
    def test_trace_session_with_jobs_gt_1_raises(self, tmp_path):
        config = small_config(schedulers=("wfq",))
        with trace_session(tmp_path / "traces"):
            with pytest.raises(ConfigurationError, match="jobs"):
                run_comparison(small_population(), config, jobs=2)

    def test_trace_session_serial_still_traces(self, tmp_path):
        config = small_config(schedulers=("wfq",))
        with trace_session(tmp_path / "traces") as session:
            run_comparison(small_population(), config, jobs=1)
        assert len(session.runs) == 1

    def test_cache_hit_recorded_in_session_manifest(self, tmp_path):
        import json

        cache = RunCache(tmp_path / "cache")
        config = small_config(schedulers=("wfq",))
        run_comparison(small_population(), config, cache=cache)
        with trace_session(tmp_path / "traces") as session:
            run_comparison(small_population(), config, cache=cache)
        assert cache.hits == 1
        assert len(session.runs) == 1
        manifest = json.loads(
            (tmp_path / "traces" / session.runs[0] / "manifest.json").read_text()
        )
        assert manifest["cache"]["status"] == "hit"
        assert len(manifest["cache"]["key"]) == 64

    def test_clear_session(self, tmp_path):
        with trace_session(tmp_path):
            assert current_session() is not None
            clear_session()
            assert current_session() is None

    def test_workers_run_with_tracing_disabled(self, tmp_path):
        """Pool workers must never inherit the parent's trace session
        (fork copies module globals); run_cells clears it per cell."""
        from repro.parallel.engine import _run_cell

        class Probe:
            def execute(self):
                return current_session() is None

        with trace_session(tmp_path):
            assert _run_cell(Probe()) is True
        assert current_session() is None


class TestNoStateLeakage:
    """run_comparison must not mutate its inputs between scheduler runs:
    every run sees identical specs/config/trace (the old serial loop
    shared one materialized trace across runs, so any in-place mutation
    would leak from one scheduler into the next)."""

    def test_inputs_unchanged_by_run(self):
        config = small_config()
        specs = small_population()
        before = pickle.dumps((specs, config))
        run_comparison(specs, config)
        assert pickle.dumps((specs, config)) == before

    def test_back_to_back_runs_identical(self):
        config = small_config()
        first = run_comparison(small_population(), config)
        second = run_comparison(small_population(), config)
        for name in first.runs:
            assert pickle.dumps(first[name].latencies) == pickle.dumps(
                second[name].latencies
            )


class _ValueCell:
    """Picklable trivial cell for the merge-order test."""

    def __init__(self, value):
        self.value = value

    def label(self):
        return f"cell-{self.value}"

    def execute(self):
        return self.value


class TestRunCells:
    def test_results_merge_in_cell_order(self):
        cells = [_ValueCell(i) for i in range(8)]
        assert run_cells(cells, jobs=4) == list(range(8))
        assert run_cells(cells, jobs=1) == list(range(8))

    def test_worker_errors_propagate(self):
        config = small_config(schedulers=("no-such-scheduler",))
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(
                [
                    RunSpec(
                        scheduler="no-such-scheduler",
                        specs=tuple(small_population()),
                        config=config,
                    )
                ],
                jobs=2,
            )
        # Regression: the wrapper names the failing cell, not just the
        # anonymous worker traceback.
        assert excinfo.value.index == 0
        assert "no-such-scheduler" in excinfo.value.label


@dataclasses.dataclass(frozen=True)
class _CrashCell:
    """Picklable cell that always raises."""

    tag: int = 0

    def label(self):
        return f"crash-{self.tag}"

    def execute(self):
        raise ValueError("boom")


@dataclasses.dataclass(frozen=True)
class _MarkerCell:
    """Picklable cell that leaves a marker file, so a test can count
    the cells that actually executed, then holds its worker briefly."""

    directory: str
    tag: int

    def label(self):
        return f"marker-{self.tag}"

    def execute(self):
        (Path(self.directory) / str(self.tag)).write_text("ran")
        time.sleep(0.05)
        return self.tag


class TestFailurePolicy:
    def test_cell_execution_error_is_attributable(self):
        cells = [_ValueCell(0), _CrashCell(tag=7)]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, jobs=1)
        err = excinfo.value
        assert err.index == 1
        assert err.cell is cells[1]
        assert err.label == "crash-7"
        assert "crash-7" in str(err) and "boom" in str(err)
        assert isinstance(err.__cause__, ValueError)

    def test_pool_worker_errors_wrapped_identically(self):
        cells = [_ValueCell(0), _CrashCell(tag=3)]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, jobs=2)
        assert excinfo.value.index == 1
        assert excinfo.value.label == "crash-3"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_quarantine_returns_other_results(self, jobs):
        results = run_cells(
            [_ValueCell(1), _CrashCell(), _ValueCell(3)],
            jobs=jobs,
            on_error="quarantine",
        )
        assert results[0] == 1 and results[2] == 3
        failure = results[1]
        assert isinstance(failure, CellFailure)
        assert failure.index == 1
        assert failure.error_type == "ValueError"
        assert failure.as_dict()["error"] == "boom"

    def test_fail_fast_pool_cancels_queued_cells(self, tmp_path):
        cells = [_CrashCell()] + [
            _MarkerCell(directory=str(tmp_path), tag=i) for i in range(30)
        ]
        with pytest.raises(CellExecutionError):
            run_cells(cells, jobs=2)
        # The crash is the first cell out, so most markers were still
        # queued when it failed; they must never start.
        assert len(list(tmp_path.iterdir())) < 15

    def test_failed_cells_are_never_cached(self, tmp_path):
        cache = RunCache(tmp_path)
        (failure,) = run_cells(
            [_CrashCell()], cache=cache, on_error="quarantine"
        )
        assert isinstance(failure, CellFailure)
        assert cache.stores == 0

    def test_quarantined_cell_recorded_in_session_manifest(self, tmp_path):
        with trace_session(tmp_path / "traces") as session:
            results = run_cells(
                [_ValueCell(1), _CrashCell()], on_error="quarantine"
            )
        assert results[0] == 1
        assert session.errors and session.errors[0]["error_type"] == "ValueError"
        (failed_run,) = [name for name in session.runs if "failed" in name]
        manifest = json.loads(
            (tmp_path / "traces" / failed_run / "manifest.json").read_text()
        )
        assert manifest["errors"] == [
            {
                "index": 1,
                "label": "crash-0",
                "error_type": "ValueError",
                "error": "boom",
            }
        ]

    @pytest.mark.parametrize("kwargs", [{"on_error": "explode"}])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            run_cells([_ValueCell(1)], **kwargs)


class TestSuiteQuarantine:
    def test_suite_with_crashing_cells_completes(self, monkeypatch):
        # Sabotage one scheduler's runs; the suite must still return
        # every other cell's results and list the failures.
        import repro.experiments.runner as runner_module

        original = runner_module.run_single

        def sabotaged(name, specs, config, **kwargs):
            if name == "wf2q-e":
                raise RuntimeError("seeded cell crash")
            return original(name, specs, config, **kwargs)

        monkeypatch.setattr(runner_module, "run_single", sabotaged)
        result = run_suite(SMALL_PARAMS, schedulers=("wfq-e", "wf2q-e"))
        assert len(result.errors) == SMALL_PARAMS.num_experiments
        for record in result.errors:
            assert record["error_type"] == "RuntimeError"
            assert "wf2q-e" in record["label"]
        for record in result.p99:
            assert record["wfq-e"]  # healthy scheduler fully populated
            assert record["wf2q-e"] == {}  # quarantined: reads as NaN
        assert math.isnan(result.median_speedup("wf2q-e", "T1"))

    def test_clean_suite_has_no_errors(self):
        result = run_suite(SMALL_PARAMS, schedulers=("wfq-e",))
        assert result.errors == []
