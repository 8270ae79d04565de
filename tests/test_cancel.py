"""The cancellation path through the scheduler stack.

Every scheduler implements ``cancel(request, now)`` with exact charge
refunds: a cancelled request leaves the scheduler's virtual-time state
as if it had never been dispatched, mirroring the
``complete()`` reconciliation in the other direction.  The property
tests at the bottom pin the two race orderings:

* **cancel-then-complete**: after a cancel, a stale ``complete()`` is a
  no-op and the scheduler's state matches a control scheduler that
  never saw the request (tags approximately -- ``(S + x) - x`` is not
  exact in floats -- and integer/structural state exactly);
* **complete-then-cancel**: after a normal completion, a stale
  ``cancel()`` returns ``False`` and changes nothing at all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import make_scheduler
from repro.core.request import Request, RequestPhase
from repro.core.vt_base import VirtualTimeScheduler

from conftest import TEST_SCHEDULERS as ALL_SCHEDULERS, build_scheduler

VT_SCHEDULERS = [
    n for n in ALL_SCHEDULERS
    if isinstance(build_scheduler(n, num_threads=1), VirtualTimeScheduler)
]

APPROX = dict(rel=1e-9, abs=1e-12)


def state_snapshot(scheduler):
    """Comparable scheduler state: structural fields exact, tags float."""
    tenants = {}
    for tid, state in scheduler.tenants().items():
        tenants[tid] = {
            "start_tag": state.start_tag,
            "queued": len(state.queue),
            "running": state.running,
            "active": state.active,
        }
    snap = {"backlog": scheduler.backlog, "tenants": tenants}
    clock = getattr(scheduler, "virtual_clock", None)
    if clock is not None:
        snap["vt"] = clock.value
        snap["active_weight"] = clock.active_weight
    return snap


def assert_snapshots_match(got, want):
    assert got["backlog"] == want["backlog"]
    assert set(got["tenants"]) == set(want["tenants"])
    for tid, state in want["tenants"].items():
        other = got["tenants"][tid]
        assert other["queued"] == state["queued"], tid
        assert other["running"] == state["running"], tid
        assert other["active"] == state["active"], tid
        assert other["start_tag"] == pytest.approx(state["start_tag"], **APPROX)
    if "vt" in want:
        assert got["vt"] == pytest.approx(want["vt"], **APPROX)
        assert got["active_weight"] == pytest.approx(
            want["active_weight"], **APPROX
        )


class TestCancelQueued:
    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_cancel_queued_removes_and_counts(self, name):
        scheduler = build_scheduler(name, num_threads=2)
        keep = Request(tenant_id="A", cost=1.0)
        victim = Request(tenant_id="B", cost=4.0)
        scheduler.enqueue(keep, 0.0)
        scheduler.enqueue(victim, 0.0)
        assert scheduler.cancel(victim, 0.0) is True
        assert victim.phase == RequestPhase.CANCELLED
        assert scheduler.backlog == 1
        assert scheduler.cancelled_count == 1
        # The cancelled request is gone: only `keep` can be dispatched.
        assert scheduler.dequeue(0, 0.0) is keep
        assert scheduler.dequeue(1, 0.0) is None

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_cancel_is_idempotent(self, name):
        scheduler = build_scheduler(name, num_threads=1)
        victim = Request(tenant_id="A", cost=1.0)
        scheduler.enqueue(victim, 0.0)
        assert scheduler.cancel(victim, 0.0) is True
        assert scheduler.cancel(victim, 0.0) is False
        assert scheduler.cancelled_count == 1

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_cancel_unknown_request_is_false(self, name):
        scheduler = build_scheduler(name, num_threads=1)
        scheduler.enqueue(Request(tenant_id="A", cost=1.0), 0.0)
        stranger = Request(tenant_id="Z", cost=1.0)
        assert scheduler.cancel(stranger, 0.0) is False

    def test_round_robin_ring_survives_emptied_tenant(self):
        # Cancelling B's only request must remove B from the RR ring;
        # otherwise the next dequeue pops an empty queue.
        scheduler = make_scheduler("round-robin", num_threads=1)
        a1 = Request(tenant_id="A", cost=1.0)
        b1 = Request(tenant_id="B", cost=1.0)
        a2 = Request(tenant_id="A", cost=1.0)
        for r in (a1, b1, a2):
            scheduler.enqueue(r, 0.0)
        assert scheduler.cancel(b1, 0.0)
        assert scheduler.dequeue(0, 0.0) is a1
        scheduler.complete(a1, a1.cost, 1.0)
        assert scheduler.dequeue(0, 1.0) is a2
        assert scheduler.backlog == 0

    def test_fifo_global_queue_skips_cancelled(self):
        scheduler = make_scheduler("fifo", num_threads=1)
        requests = [Request(tenant_id=t, cost=1.0) for t in ("A", "B", "C")]
        for r in requests:
            scheduler.enqueue(r, 0.0)
        assert scheduler.cancel(requests[1], 0.0)
        assert scheduler.dequeue(0, 0.0) is requests[0]
        scheduler.complete(requests[0], 1.0, 1.0)
        assert scheduler.dequeue(0, 1.0) is requests[2]

    @pytest.mark.parametrize("name", VT_SCHEDULERS)
    def test_cancelling_last_request_idles_tenant(self, name):
        scheduler = build_scheduler(name, num_threads=1)
        victim = Request(tenant_id="A", cost=2.0)
        scheduler.enqueue(victim, 0.0)
        state = scheduler.tenant_state("A")
        assert state.active
        assert scheduler.cancel(victim, 0.5)
        assert not state.active
        assert scheduler.virtual_clock.active_weight == 0.0


class TestCancelRunning:
    @pytest.mark.parametrize("name", VT_SCHEDULERS)
    def test_refund_restores_start_tag(self, name):
        scheduler = build_scheduler(name, num_threads=2)
        keep = Request(tenant_id="A", cost=1.0)
        victim = Request(tenant_id="A", cost=4.0)
        scheduler.enqueue(keep, 0.0)
        scheduler.enqueue(victim, 0.0)
        first = scheduler.dequeue(0, 0.0)
        tag_before = scheduler.tenant_state("A").start_tag
        second = scheduler.dequeue(1, 0.0)
        assert {first, second} == {keep, victim}
        assert scheduler.cancel(second, 0.0)
        state = scheduler.tenant_state("A")
        assert state.start_tag == pytest.approx(tag_before, **APPROX)
        assert state.running == 1

    @pytest.mark.parametrize("name", VT_SCHEDULERS)
    def test_refund_covers_refresh_overage(self, name):
        # Refresh past the credit pushes the tag; the cancel refund must
        # return it too (charge = reported_usage + credit).
        scheduler = build_scheduler(name, num_threads=1)
        victim = Request(tenant_id="A", cost=10.0)
        scheduler.enqueue(victim, 0.0)
        tag_idle = scheduler.tenant_state("A").start_tag
        scheduler.dequeue(0, 0.0)
        estimate = victim.charged_cost
        scheduler.refresh(victim, estimate + 3.0, 0.5)
        assert victim.credit == 0.0
        assert scheduler.cancel(victim, 0.5)
        assert scheduler.tenant_state("A").start_tag == pytest.approx(
            tag_idle, **APPROX
        )

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_stale_complete_after_cancel_is_noop(self, name):
        scheduler = build_scheduler(name, num_threads=1)
        victim = Request(tenant_id="A", cost=2.0)
        scheduler.enqueue(victim, 0.0)
        scheduler.dequeue(0, 0.0)
        assert scheduler.cancel(victim, 0.5)
        snap = state_snapshot(scheduler)
        scheduler.complete(victim, 2.0, 1.0)  # stale: must change nothing
        assert victim.phase == RequestPhase.CANCELLED
        assert scheduler.completed_count == 0
        assert_snapshots_match(state_snapshot(scheduler), snap)


# -- property tests (satellite: race orderings over seeds) -------------------

orderings = st.sampled_from(["cancel-then-complete", "complete-then-cancel"])


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(ALL_SCHEDULERS),
    cost_a=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    cost_b=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    cost_victim=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    usage_fraction=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    ordering=orderings,
)
def test_cancel_orderings_match_never_submitting(
    name, cost_a, cost_b, cost_victim, usage_fraction, ordering
):
    """Drive a test scheduler and a control scheduler through the same
    workload; the test scheduler additionally dispatches (and part-way
    refreshes) a victim request that is then cancelled.  Afterwards the
    two schedulers' states must match -- the victim might as well never
    have been submitted.  In the complete-then-cancel ordering the stale
    cancel must leave the post-completion state untouched, exactly.
    """
    test = build_scheduler(name, num_threads=2)
    control = build_scheduler(name, num_threads=2)
    for scheduler in (test, control):
        scheduler.enqueue(Request(tenant_id="A", cost=cost_a), 0.0)
        scheduler.enqueue(Request(tenant_id="B", cost=cost_b), 0.0)
        first = scheduler.dequeue(0, 0.0)
        second = scheduler.dequeue(1, 0.0)
        assert first is not None and second is not None

    victim = Request(tenant_id="A", cost=cost_victim)
    test.enqueue(victim, 1.0)
    dispatched = test.dequeue(0, 1.0)
    assert dispatched is victim  # only queued request
    usage = usage_fraction * cost_victim
    if usage > 0.0:
        test.refresh(victim, usage, 1.5)

    if ordering == "cancel-then-complete":
        assert test.cancel(victim, 2.0) is True
        test.complete(victim, cost_victim, 2.5)  # stale: no-op
        assert victim.phase == RequestPhase.CANCELLED
        # Advance the control clock to the same wallclock so virtual
        # times are comparable.
        if hasattr(control, "virtual_time"):
            control.virtual_time(2.0)
        assert_snapshots_match(state_snapshot(test), state_snapshot(control))
        assert test.completed_count == control.completed_count == 0
        assert test.cancelled_count == 1
    else:
        test.complete(victim, max(0.0, cost_victim - usage), 2.0)
        assert victim.phase == RequestPhase.DONE
        snap = state_snapshot(test)
        assert test.cancel(victim, 2.5) is False
        # A stale cancel after completion changes nothing, bit for bit.
        assert state_snapshot(test) == snap
        assert test.completed_count == 1
        assert test.cancelled_count == 0


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(ALL_SCHEDULERS),
    cost_victim=st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
)
def test_queued_cancel_matches_never_submitting(name, cost_victim):
    """Cancelling a still-queued request also restores the
    never-submitted state (nothing was charged; only backlog structures
    must be repaired)."""
    test = build_scheduler(name, num_threads=2)
    control = build_scheduler(name, num_threads=2)
    for scheduler in (test, control):
        scheduler.enqueue(Request(tenant_id="A", cost=1.0), 0.0)
        scheduler.dequeue(0, 0.0)

    victim = Request(tenant_id="A", cost=cost_victim)
    test.enqueue(victim, 1.0)
    assert test.cancel(victim, 1.0) is True
    if hasattr(control, "virtual_time"):
        control.virtual_time(1.0)
    assert_snapshots_match(state_snapshot(test), state_snapshot(control))
