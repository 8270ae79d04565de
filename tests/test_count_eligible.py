"""``SelectionIndex.count_eligible`` against the linear scan.

Traced ``select`` rows carry ``eligible``, the size of Figure 7's
eligible set on the dequeuing thread.  The index counts it in two
parts: every entry whose finish tag is within the threshold (one
``bisect_right``; a finish tag bounds its own staggered start tag from
above when the stagger is non-negative), plus the entries after that
prefix that pass ``start - stagger * estimate <= threshold``.  These
tests compare the count with
``tests/reference/linear_selection.eligible_tenants`` at the boundaries
of both parts:

* a finish tag exactly at the threshold (the prefix's edge);
* a staggered start tag exactly at the threshold (the tail test's
  edge), with ``vnow`` found by ``math.nextafter`` so that
  ``_eligibility_threshold(vnow)`` lands on the value;
* a zero-cost head, clamped to ``MIN_COST``, whose finish tag rounds
  to its start tag;
* no eligible tenant at all (the fallback's traced count is 0).

A hypothesis property covers weights, costs, staggers and thresholds,
and a traced 100-tenant, 16-thread run in the ``expensive`` cell's
50/50 shape checks every ``select`` row while both parts are in use.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.request import Request
from repro.obs import Tracer
from repro.obs.events import row_as_dict
from repro.simulator import BackloggedSource
from repro.simulator.clock import Simulation
from repro.simulator.server import ThreadPoolServer

from conftest import build_scheduler, check_every_pick
from reference import linear_selection

GATED = ["wf2q", "2dfq"]


def vnow_for_threshold(scheduler, target):
    """A virtual time whose eligibility threshold is exactly ``target``,
    or ``None`` when rounding skips it."""
    threshold = scheduler._eligibility_threshold
    eps = linear_selection.ELIGIBILITY_EPS
    if target > 1.0 + eps:
        vnow = target / (1.0 + eps)
    elif target < -1.0 + eps:
        vnow = target / (1.0 - eps)
    else:
        vnow = target - eps
    for _ in range(64):
        got = threshold(vnow)
        if got == target:
            return vnow
        vnow = math.nextafter(vnow, math.inf if got < target else -math.inf)
    return None


def reference_count(scheduler, stagger, vnow):
    return len(linear_selection.eligible_tenants(scheduler, stagger, vnow))


def assert_count(scheduler, stagger, vnow):
    """The index's count is the linear scan's; returns it."""
    threshold = scheduler._eligibility_threshold(vnow)
    got = scheduler.selection_index.count_eligible(stagger, threshold)
    assert got == reference_count(scheduler, stagger, vnow), (stagger, vnow)
    return got


def backlog(name, num_threads, tenants, dispatches):
    """Every tenant in ``tenants`` (``(weight, costs)``) queues all its
    costs at t=0; then ``dispatches`` picks run and complete at once,
    which spreads the start tags."""
    scheduler = build_scheduler(name, num_threads)
    for i, (weight, costs) in enumerate(tenants):
        for cost in costs:
            scheduler.enqueue(
                Request(tenant_id=f"T{i}", cost=cost, weight=weight), 0.0
            )
    for k in range(dispatches):
        request = scheduler.dequeue(k % num_threads, 0.0)
        scheduler.complete(request, request.cost, 0.0)
    return scheduler


TENANTS = [
    (1.0, [1.0, 3.0, 1.0]),
    (2.0, [4.0, 4.0, 4.0]),
    (0.5, [0.5, 2.0, 8.0]),
    (1.0, [10.0, 1.0, 1.0]),
    (3.0, [2.0, 6.0, 2.0]),
    (1.0, [0.25, 0.25, 0.25]),
]


class CountingStagger(float):
    """A stagger that counts the entries it is multiplied against: the
    entries the count tested one by one."""

    tested = 0

    def __mul__(self, other):
        CountingStagger.tested += 1
        return float(self) * other


class TestBoundaries:
    @pytest.mark.parametrize("name", GATED)
    def test_finish_tag_at_the_threshold(self, name):
        """An entry whose finish tag equals the threshold is eligible
        and counted in the prefix: only the entries with a larger finish
        tag are tested one by one."""
        scheduler = backlog(name, 4, TENANTS, dispatches=5)
        index = scheduler.selection_index
        entries = index.entries()
        for entry in entries:
            vnow = vnow_for_threshold(scheduler, entry[0])
            assert vnow is not None
            threshold = scheduler._eligibility_threshold(vnow)
            beyond = sum(1 for other in entries if other[0] > threshold)
            for stagger in sorted(set(scheduler._thread_staggers)):
                eligible = linear_selection.eligible_tenants(scheduler, stagger, vnow)
                assert entry[4] in eligible
                assert_count(scheduler, stagger, vnow)
                CountingStagger.tested = 0
                index.count_eligible(CountingStagger(stagger), threshold)
                assert CountingStagger.tested == beyond

    @pytest.mark.parametrize("name", GATED)
    def test_staggered_start_at_the_threshold(self, name):
        """An entry whose staggered start tag equals the threshold, with
        its finish tag above it, is eligible: the tail test is ``<=``."""
        scheduler = backlog(name, 4, TENANTS, dispatches=5)
        staggers = set(scheduler._thread_staggers)
        checked = []
        for stagger in sorted(staggers):
            for entry in scheduler.selection_index.entries():
                staggered = entry[3] - stagger * entry[1]
                vnow = vnow_for_threshold(scheduler, staggered)
                if vnow is None:
                    continue  # no threshold rounds to this value
                assert entry[0] > scheduler._eligibility_threshold(vnow)
                eligible = linear_selection.eligible_tenants(scheduler, stagger, vnow)
                assert entry[4] in eligible
                assert assert_count(scheduler, stagger, vnow) >= 1
                checked.append(stagger)
        assert set(checked) == staggers
        assert len(checked) >= len(TENANTS) * len(staggers) - 2

    @pytest.mark.parametrize("name", GATED)
    def test_zero_cost_head_clamped_to_min_cost(self, name):
        """A zero-cost head is priced at ``MIN_COST``.  At a large start
        tag its finish tag rounds to the start tag; at a small one it
        lies just above it.  Either way, a threshold at the start tag
        admits it."""
        scheduler = build_scheduler(name, 2)
        # Each tenant's first request runs alone, leaving its zero-cost
        # second request at the head with the start tag pushed past it.
        for tenant, cost in (("T0", 1e9), ("T1", 0.5)):
            for head in (cost, 0.0):
                scheduler.enqueue(Request(tenant_id=tenant, cost=head), 0.0)
            request = scheduler.dequeue(0, 0.0)
            assert (request.tenant_id, request.cost) == (tenant, cost)
            scheduler.complete(request, request.cost, 0.0)
        for _ in range(2):
            scheduler.enqueue(Request(tenant_id="T2", cost=2.0), 0.0)
        by_tenant = {e[4].tenant_id: e for e in scheduler.selection_index.entries()}
        big, small = by_tenant["T0"], by_tenant["T1"]
        assert big[1] == small[1] == linear_selection.MIN_COST
        assert big[0] == big[3] == 1e9
        assert small[0] > small[3] == 0.5
        for entry in (big, small):
            vnow = vnow_for_threshold(scheduler, entry[3])
            assert vnow is not None
            for stagger in sorted(set(scheduler._thread_staggers)):
                assert assert_count(scheduler, stagger, vnow) >= 1

    @pytest.mark.parametrize("name", GATED)
    def test_nothing_eligible(self, name):
        """Just below every staggered start tag the count is 0."""
        scheduler = backlog(name, 4, TENANTS, dispatches=8)
        entries = scheduler.selection_index.entries()
        for stagger in sorted(set(scheduler._thread_staggers)):
            lowest = min(e[3] - stagger * e[1] for e in entries)
            vnow = vnow_for_threshold(scheduler, lowest)
            assert vnow is not None
            below = vnow
            while scheduler._eligibility_threshold(below) >= lowest:
                below = math.nextafter(below, -math.inf)
            assert reference_count(scheduler, stagger, below) == 0
            assert assert_count(scheduler, stagger, below) == 0

    @pytest.mark.parametrize("name", GATED)
    def test_traced_fallback_and_eligible_picks(self, name):
        """A traced pick that falls back reports 0 without counting; one
        that finds an eligible tenant reports the linear scan's count."""
        tracer = Tracer(name)
        scheduler = build_scheduler(name, 2)
        scheduler.attach_tracer(tracer)
        picks = check_every_pick(scheduler, tracer)
        # Two requests each: after the first dispatch round every start
        # tag is ahead of the virtual clock, which stands still at t=0.
        for tenant, cost in (("A", 4.0), ("B", 1.0), ("C", 2.0)):
            for _ in range(2):
                scheduler.enqueue(Request(tenant_id=tenant, cost=cost), 0.0)
        for _ in range(5):
            scheduler.dequeue(1, 0.0)
        rows = [row_as_dict(r) for r in tracer.rows if r[0] == "select"]
        assert [p.fallback for p in picks] == [r["fallback"] for r in rows]
        assert {p.fallback for p in picks} == {False, True}
        assert all(r["eligible"] > 0 for r in rows if not r["fallback"])
        assert all(r["eligible"] == 0 for r in rows if r["fallback"])


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(GATED),
    tenants=st.lists(
        st.tuples(
            st.floats(0.05, 20.0),
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.01, 100.0)),
                min_size=1,
                max_size=4,
            ),
        ),
        min_size=1,
        max_size=10,
    ),
    dispatches=st.integers(0, 12),
    stagger=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
    data=st.data(),
)
def test_count_matches_linear_scan(name, tenants, dispatches, stagger, data):
    """Any weights, costs and non-negative stagger; the threshold sits
    on an entry's finish tag, on its staggered start tag, or anywhere
    in between."""
    total = sum(len(costs) for _, costs in tenants)
    scheduler = backlog(name, 3, tenants, dispatches=min(dispatches, total - 1))
    entries = scheduler.selection_index.entries()
    entry = data.draw(st.sampled_from(entries))
    target = data.draw(
        st.one_of(
            st.just(entry[0]),
            st.just(entry[3] - stagger * entry[1]),
            st.floats(-10.0, 400.0),
        )
    )
    vnow = vnow_for_threshold(scheduler, target)
    assume(vnow is not None)
    threshold = scheduler._eligibility_threshold(vnow)
    got = assert_count(scheduler, stagger, vnow)
    prefix = bisect_right([e[0] for e in entries], threshold)
    assert got >= prefix
    first = scheduler.selection_index.min_eligible_finish(stagger, threshold)
    assert (got == 0) == (first is None)


def test_traced_expensive_shape_uses_prefix_and_tail():
    """The ``expensive`` cell's shape (100 closed-loop tenants, half of
    them 1000x costlier, 16 threads) on 2DFQ, traced: every pick and
    every ``select`` row's count is the linear scan's, and the rows
    include counts with a non-empty finish-tag prefix and counts with
    eligible entries past it."""
    num_threads, rate = 16, 1000.0
    sim = Simulation()
    scheduler = build_scheduler("2dfq", num_threads, thread_rate=rate)
    tracer = Tracer("2dfq")
    scheduler.attach_tracer(tracer)
    server = ThreadPoolServer(sim, scheduler, num_threads=num_threads, rate=rate)
    check_every_pick(scheduler, tracer)
    picked = scheduler.dequeue
    parts = []

    def split(thread_id, now):
        if scheduler.backlog:
            vnow = scheduler.virtual_time(now)
            threshold = scheduler._eligibility_threshold(vnow)
            stagger = scheduler._thread_staggers[thread_id]
            entries = scheduler.selection_index.entries()
            prefix = bisect_right([e[0] for e in entries], threshold)
            tail = sum(
                1 for e in entries[prefix:] if e[3] - stagger * e[1] <= threshold
            )
            parts.append((prefix, tail))
        return picked(thread_id, now)

    scheduler.dequeue = split
    for i in range(50):
        BackloggedSource(server, f"E{i}", lambda: ("big", 1000.0)).start()
        BackloggedSource(server, f"S{i}", lambda: ("small", 1.0)).start()
    sim.run(until=0.25)
    assert len(parts) > 1000
    assert any(prefix > 0 for prefix, _ in parts)
    assert any(tail > 0 for _, tail in parts)
