"""Unit tests for the observability metrics registry."""

import pytest

from repro.obs import HOST_CLOCK, Counter, Gauge, MetricsRegistry, Timer


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_name(self):
        assert Counter("scheduler.dispatches").name == "scheduler.dispatches"


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.set(1.25)
        assert gauge.value == 1.25


class TestTimer:
    def test_context_manager_accumulates(self):
        timer = Timer("t")
        with timer:
            pass
        with timer:
            pass
        assert timer.count == 2
        assert timer.total >= 0.0
        assert timer.last >= 0.0
        assert timer.total >= timer.last

    def test_explicit_start_stop(self):
        timer = Timer("t")
        timer.start()
        elapsed = timer.stop()
        assert elapsed == timer.last
        assert timer.count == 1


class TestInjectableClock:
    def test_timer_reads_through_injected_clock(self):
        now = {"t": 10.0}
        timer = Timer("t", clock=lambda: now["t"])
        timer.start()
        now["t"] = 12.5
        assert timer.stop() == pytest.approx(2.5)
        assert timer.total == pytest.approx(2.5)

    def test_timer_defaults_to_host_clock(self):
        assert Timer("t").clock is HOST_CLOCK



class TestMetricsRegistry:
    def test_counter_is_lazily_created_and_cached(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        counter.inc()
        assert registry.counter("a") is counter
        assert registry.counter("a").value == 1

    def test_name_collision_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(Exception):
            registry.gauge("x")

    def test_snapshot_shapes(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("depth").set(7.0)
        registry.counter("misses")
        assert registry.snapshot() == {"hits": 3, "misses": 0, "depth": 7.0}
        assert list(registry.snapshot()) == ["hits", "misses", "depth"]

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        snap = registry.snapshot()
        registry.counter("n").inc()
        assert snap["n"] == 1
