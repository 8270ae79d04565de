"""Basic contract tests run against every scheduler implementation."""

import pytest

from repro.core import (
    VirtualTimeScheduler,
    WF2QScheduler,
    make_scheduler,
    scheduler_names,
)
from repro.errors import ConfigurationError, SchedulerError

from conftest import TEST_SCHEDULERS, SchedulerHarness, build_scheduler, make_request


@pytest.mark.parametrize("name", TEST_SCHEDULERS)
class TestSchedulerContract:
    def test_empty_dequeue_returns_none(self, name):
        s = build_scheduler(name, num_threads=2)
        assert s.dequeue(0, 0.0) is None

    def test_enqueue_dequeue_roundtrip(self, name):
        s = build_scheduler(name, num_threads=2)
        r = make_request("A", 5.0)
        s.enqueue(r, 0.0)
        assert s.backlog == 1
        out = s.dequeue(0, 0.0)
        assert out is r
        assert s.backlog == 0
        assert out.thread_id == 0
        assert out.dispatch_time == 0.0

    def test_complete_lifecycle(self, name):
        s = build_scheduler(name, num_threads=1)
        r = make_request("A", 5.0)
        s.enqueue(r, 0.0)
        out = s.dequeue(0, 0.0)
        s.complete(out, 5.0, 5.0)
        assert s.completed_count == 1
        assert out.phase == "done"

    def test_fifo_within_tenant(self, name):
        s = build_scheduler(name, num_threads=1)
        first = make_request("A", 1.0)
        second = make_request("A", 1.0)
        s.enqueue(first, 0.0)
        s.enqueue(second, 0.0)
        assert s.dequeue(0, 0.0) is first

    def test_invalid_thread_index(self, name):
        s = build_scheduler(name, num_threads=2)
        s.enqueue(make_request("A", 1.0), 0.0)
        with pytest.raises(SchedulerError):
            s.dequeue(2, 0.0)
        with pytest.raises(SchedulerError):
            s.dequeue(-1, 0.0)

    def test_work_conservation(self, name):
        """Whenever requests are queued, every thread can get one."""
        s = build_scheduler(name, num_threads=4)
        for i in range(8):
            s.enqueue(make_request(f"T{i % 3}", 10.0 ** (i % 4)), 0.0)
        got = [s.dequeue(i, 0.0) for i in range(4)]
        assert all(r is not None for r in got)
        assert s.backlog == 4

    def test_backlog_counts(self, name):
        s = build_scheduler(name, num_threads=2)
        for i in range(5):
            s.enqueue(make_request(f"T{i}", 1.0), 0.0)
        assert s.backlog == 5
        s.dequeue(0, 0.0)
        s.dequeue(1, 0.0)
        assert s.backlog == 3

    def test_construction_validation(self, name):
        with pytest.raises(ConfigurationError):
            build_scheduler(name, num_threads=0)
        with pytest.raises(ConfigurationError):
            build_scheduler(name, num_threads=2, thread_rate=-1.0)

    def test_long_run_fairness_two_tenants(self, name):
        """Over a long horizon, two backlogged equal-weight tenants with
        different request sizes receive (roughly) equal service under
        every fair scheduler; FIFO and round-robin are exempt -- they
        are the paper's negative baselines."""
        if name in ("fifo", "round-robin"):
            pytest.skip("cost-oblivious baseline: not resource-fair")
        s = build_scheduler(name, num_threads=2)
        harness = SchedulerHarness(s, {"small": 1.0, "big": 10.0})
        harness.run(400.0)
        service = harness.service_by_tenant(horizon=360.0)
        ratio = service["small"] / service["big"]
        assert 0.75 < ratio < 1.35, f"{name}: unfair ratio {ratio}"


class TestRegistry:
    def test_unknown_scheduler(self):
        with pytest.raises(KeyError, match="unknown scheduler"):
            make_scheduler("bogus", num_threads=1)

    def test_names_cover_paper_algorithms(self):
        # Exactly the paper's schedulers, baselines and ^E variants: a
        # new name must edit this set and justify itself.
        assert set(scheduler_names()) == {
            "fifo", "round-robin", "wfq", "wf2q", "msf2q", "sfq",
            "2dfq", "2dfq-e", "wfq-e", "wf2q-e",
        }

    def test_estimated_variants_use_right_estimators(self):
        assert make_scheduler("wfq-e", num_threads=1).estimator.name == "ema"
        assert make_scheduler("wf2q-e", num_threads=1).estimator.name == "ema"
        assert (
            make_scheduler("2dfq-e", num_threads=1).estimator.name == "pessimistic"
        )
        assert make_scheduler("2dfq", num_threads=1).estimator.name == "oracle"

    def test_alpha_passthrough(self):
        s = make_scheduler("2dfq-e", num_threads=1, alpha=0.9)
        assert s.estimator.alpha == 0.9


class TestPolicyDeclaration:
    """A policy is its staggers and its order; declarations the
    framework would not honour fail where they are written."""

    def test_selection_methods_are_rejected(self):
        for hook in ("_select", "_fallback"):
            with pytest.raises(ConfigurationError, match=hook):
                type("Custom", (VirtualTimeScheduler,), {hook: lambda self: None})

    def test_unknown_order_is_rejected(self):
        with pytest.raises(ConfigurationError, match="order"):
            type("Custom", (WF2QScheduler,), {"order": "deadline"})

    def test_one_stagger_per_thread(self):
        short = type(
            "Short", (VirtualTimeScheduler,), {"_staggers": lambda self, n: (0.0,)}
        )
        short(num_threads=1)
        with pytest.raises(ConfigurationError, match="1 staggers for 2 threads"):
            short(num_threads=2)

    @pytest.mark.parametrize("bad", [-0.25, float("nan"), float("inf")])
    def test_staggers_must_be_finite_and_non_negative(self, bad):
        """The eligibility count takes every entry whose finish tag
        passes as eligible, which needs ``stagger >= 0``."""
        declared = type(
            "Declared",
            (VirtualTimeScheduler,),
            {"_staggers": lambda self, n: (0.0,) + (bad,) * (n - 1)},
        )
        declared(num_threads=1)
        with pytest.raises(ConfigurationError, match="finite and non-negative"):
            declared(num_threads=3)
