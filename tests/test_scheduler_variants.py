"""Behavioural tests specific to the baseline scheduler variants."""

from repro.core import (
    MSF2QScheduler,
    SFQScheduler,
    WF2QScheduler,
    WFQScheduler,
)

from conftest import make_request


class TestWF2QEligibility:
    def test_ineligible_small_requests_skipped(self):
        """The defining WF2Q behaviour (Figure 5d): at v=0 the second
        small request (S=1) is ineligible, so the large request runs."""
        s = WF2QScheduler(num_threads=2)
        s.enqueue(make_request("A", 1.0), 0.0)
        s.enqueue(make_request("A", 1.0), 0.0)
        s.enqueue(make_request("C", 4.0), 0.0)
        assert s.dequeue(0, 0.0).tenant_id == "A"
        assert s.dequeue(1, 0.0).tenant_id == "C"

    def test_wfq_takes_small_requests_eagerly(self):
        """WFQ has no eligibility gate: it serves A twice first."""
        s = WFQScheduler(num_threads=2)
        s.enqueue(make_request("A", 1.0), 0.0)
        s.enqueue(make_request("A", 1.0), 0.0)
        s.enqueue(make_request("C", 4.0), 0.0)
        assert s.dequeue(0, 0.0).tenant_id == "A"
        assert s.dequeue(1, 0.0).tenant_id == "A"

    def test_work_conserving_fallback(self):
        """When nothing is eligible, WF2Q still dispatches (the naive
        work-conserving multi-thread extension of §2)."""
        s = WF2QScheduler(num_threads=1)
        s.enqueue(make_request("A", 1.0), 0.0)
        s.dequeue(0, 0.0)
        s.enqueue(make_request("A", 1.0), 0.0)
        # A's start tag (1) is ahead of v(0)=0: ineligible, yet served.
        assert s.dequeue(0, 0.0) is not None


class TestMSF2Q:
    def test_fallback_uses_min_start(self):
        s = MSF2QScheduler(num_threads=1)
        # Two tenants, both ineligible (start tags ahead of v).
        for tenant, cost in (("A", 2.0), ("B", 3.0)):
            s.enqueue(make_request(tenant, cost), 0.0)
            s.dequeue(0, 0.0)
            s.enqueue(make_request(tenant, cost), 0.0)
        # S_A = 2, S_B = 3, both > v ~ 0; fallback picks min start = A.
        assert s.dequeue(0, 0.0).tenant_id == "A"


class TestSFQ:
    def test_orders_by_start_tag(self):
        s = SFQScheduler(num_threads=1)
        s.enqueue(make_request("A", 100.0), 0.0)
        s.enqueue(make_request("B", 1.0), 0.0)
        first = s.dequeue(0, 0.0)  # both S=0; tie-break by size
        assert first.tenant_id == "B"
        # B's start advanced by 1; A still at 0 -> A next.
        assert s.dequeue(0, 0.0).tenant_id == "A"


class TestFIFOandRR:
    def test_fifo_ignores_tenancy(self):
        from repro.core import FIFOScheduler

        s = FIFOScheduler(num_threads=1)
        order = []
        for tenant in ("A", "A", "A", "B"):
            s.enqueue(make_request(tenant, 1.0), 0.0)
        for _ in range(4):
            order.append(s.dequeue(0, 0.0).tenant_id)
        assert order == ["A", "A", "A", "B"]

    def test_round_robin_alternates(self):
        from repro.core import RoundRobinScheduler

        s = RoundRobinScheduler(num_threads=1)
        for tenant in ("A", "A", "A", "B", "B", "B"):
            s.enqueue(make_request(tenant, 1.0), 0.0)
        order = [s.dequeue(0, 0.0).tenant_id for _ in range(6)]
        assert order == ["A", "B", "A", "B", "A", "B"]
