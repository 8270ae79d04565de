"""2DFQ-specific behaviour: staggered eligibility and size partitioning."""

import pytest

from repro.core import TwoDFQEScheduler, TwoDFQScheduler, WF2QScheduler

from conftest import SchedulerHarness, make_request


class TestStaggeredEligibility:
    def test_thread_zero_matches_wf2q_eligibility(self):
        """On thread 0 the stagger offset is zero, so 2DFQ's eligibility
        set equals WF2Q's; the worked example diverges only via other
        threads' choices."""
        for scheduler_cls in (TwoDFQScheduler, WF2QScheduler):
            s = scheduler_cls(num_threads=2)
            a1 = make_request("A", 1.0)
            s.enqueue(a1, 0.0)
            s.enqueue(make_request("A", 1.0), 0.0)
            s.enqueue(make_request("C", 4.0), 0.0)
            assert s.dequeue(0, 0.0).tenant_id == "A"
            # A's next start tag is 1 > v(0): ineligible on thread 0; C
            # (start 0) must win there under both policies.
            assert s.dequeue(0, 0.0).tenant_id == "C"

    def test_high_thread_sees_small_requests_earlier(self):
        """At t=0.5 (v=0.5) A's second request (S=1) is eligible on the
        high thread under 2DFQ -- S - (1/2)*1 = 0.5 <= v -- but not
        under WF2Q, which therefore picks the large request instead.
        This is exactly the divergence of Figures 5d vs 6b."""
        s = TwoDFQScheduler(num_threads=2)
        s.enqueue(make_request("A", 1.0), 0.0)
        s.enqueue(make_request("A", 1.0), 0.0)
        s.enqueue(make_request("C", 4.0), 0.0)
        assert s.dequeue(0, 0.0).tenant_id == "A"
        # Two active tenants on capacity 2 -> dv/dt = 1; at t=0.5, v=0.5.
        assert s.dequeue(1, 0.5).tenant_id == "A"

        w = WF2QScheduler(num_threads=2)
        w.enqueue(make_request("A", 1.0), 0.0)
        w.enqueue(make_request("A", 1.0), 0.0)
        w.enqueue(make_request("C", 4.0), 0.0)
        assert w.dequeue(0, 0.0).tenant_id == "A"
        assert w.dequeue(1, 0.5).tenant_id == "C"

    def test_stagger_proportional_to_cost(self):
        """Large requests get proportionally earlier eligibility on high
        threads -- (i/n) * l -- so on the top thread a large request can
        be eligible while still behind in start tag."""
        s = TwoDFQScheduler(num_threads=4)
        s.enqueue(make_request("C", 100.0), 0.0)
        s.enqueue(make_request("C", 100.0), 0.0)
        s.dequeue(0, 0.0)  # S_C advances to 100
        # v(now) ~ 0; offset on thread 3 = (3/4)*100 = 75 < 100: still
        # ineligible -> policy returns via fallback anyway (work
        # conservation); verify through the thread's eligibility query.
        top = s._thread_staggers[3]
        assert top == 0.75
        threshold = s._eligibility_threshold(s.virtual_time(0.0))
        assert s.selection_index.min_eligible_finish(top, threshold) is None
        assert s.dequeue(3, 0.0) is not None  # fallback keeps it work conserving


class TestSizePartitioning:
    def test_threads_partition_by_cost(self):
        """With half small and half large backlogged tenants on 8
        threads, 2DFQ confines large requests to the low-index threads
        (Figure 8b)."""
        costs = {f"S{i}": 1.0 for i in range(8)}
        costs.update({f"L{i}": 100.0 for i in range(8)})
        s = TwoDFQScheduler(num_threads=8, thread_rate=100.0)
        harness = SchedulerHarness(s, costs)
        slots = harness.run(60.0)
        large_threads = {
            thread for start, thread, tenant in slots
            if tenant.startswith("L") and start > 5.0
        }
        small_threads = {
            thread for start, thread, tenant in slots
            if tenant.startswith("S") and start > 5.0
        }
        # Large requests keep to the bottom half; the top threads serve
        # smalls exclusively after warmup.
        assert max(large_threads) <= 4
        assert min(large_threads) == 0
        assert 7 in small_threads

    def test_wf2q_does_not_partition(self):
        costs = {f"S{i}": 1.0 for i in range(8)}
        costs.update({f"L{i}": 100.0 for i in range(8)})
        s = WF2QScheduler(num_threads=8, thread_rate=100.0)
        harness = SchedulerHarness(s, costs)
        slots = harness.run(60.0)
        large_threads = {
            thread for start, thread, tenant in slots
            if tenant.startswith("L") and start > 5.0
        }
        assert max(large_threads) == 7  # larges reach the top thread


class TestTwoDFQE:
    def test_default_estimator_is_pessimistic(self):
        s = TwoDFQEScheduler(num_threads=2)
        assert s.estimator.name == "pessimistic"
        assert s.estimator.alpha == 0.99

    def test_alpha_and_initial_forwarded(self):
        s = TwoDFQEScheduler(num_threads=2, alpha=0.9, initial_estimate=50.0)
        assert s.estimator.alpha == 0.9
        assert s.estimator.initial_estimate == 50.0

    def test_explicit_estimator_wins(self):
        from repro.estimation import EMAEstimator

        s = TwoDFQEScheduler(num_threads=2, estimator=EMAEstimator())
        assert s.estimator.name == "ema"

    def test_unpredictable_tenant_biased_to_low_threads(self):
        """After one expensive surprise, a tenant's pessimistic estimate
        keeps its (even cheap) requests ineligible on high-index threads
        -- the spatial isolation mechanism of §5 -- while a predictable
        cheap tenant stays eligible there."""
        s = TwoDFQEScheduler(num_threads=4, thread_rate=100.0)
        # Teach the estimator: U once cost 400, P is reliably cheap.
        for tenant, seen_cost in (("U", 400.0), ("P", 1.0)):
            r = make_request(tenant, seen_cost, api="G")
            s.enqueue(r, 0.0)
            out = s.dequeue(0, 0.0)
            s.complete(out, seen_cost, 0.0)
        assert s.estimator.peek("U", "G") == pytest.approx(400.0)
        # Both tenants enqueue two cheap requests and dispatch one, so
        # each has a head request and an advanced start tag.
        for tenant in ("U", "P"):
            s.enqueue(make_request(tenant, 2.0, api="G"), 0.0)
            s.enqueue(make_request(tenant, 2.0, api="G"), 0.0)
            s.dequeue(0, 0.0)
        # S_U = 400 (charged the pessimistic estimate), S_P = 1.  On the
        # top thread U's offset is (3/4)*400 = 300, leaving it 100 ahead
        # of virtual time (~0): ineligible.  P's offset makes it
        # eligible almost immediately.
        state_u = s.tenant_state("U")
        state_p = s.tenant_state("P")
        assert state_u.start_tag > state_p.start_tag
        # A virtual instant where P is eligible on the top thread
        # (needs v >= S_P - 0.75) but U is far from it (needs v >= 500).
        probe_virtual_time = state_p.start_tag + 2.0
        bottom, top = s._thread_staggers[0], s._thread_staggers[3]
        index, threshold = s.selection_index, s._eligibility_threshold
        assert index.min_eligible_finish(top, threshold(probe_virtual_time))[4] is state_p
        assert (
            index.min_eligible_finish(bottom, threshold(state_u.start_tag - 1.0))[4]
            is state_p
        )
