"""Unit tests for the discrete-event simulation loop."""

import heapq
import math

import pytest

from repro.errors import SimulationError
from repro.simulator.clock import EventHandle, Simulation
from repro.simulator.rng import make_rng

# A handle is its event's heap entry, the list [time, seq, fn, args].
TIME, SEQ, FN, ARGS = range(4)


class TestScheduling:
    def test_at_runs_in_order(self):
        sim = Simulation()
        seen = []
        sim.at(2.0, lambda: seen.append(("b", sim.now)))
        sim.at(1.0, lambda: seen.append(("a", sim.now)))
        sim.run()
        assert seen == [("a", 1.0), ("b", 2.0)]

    def test_after_is_relative(self):
        sim = Simulation()
        seen = []
        sim.at(1.0, lambda: sim.after(0.5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [1.5]

    def test_past_event_rejected(self):
        sim = Simulation()
        sim.at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().after(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        # A NaN time used to be accepted and fire first, with now = nan.
        sim = Simulation()
        seen = []
        with pytest.raises(SimulationError):
            sim.at(float("nan"), seen.append, "nan")
        sim.at(0.5, seen.append, 0.5)
        sim.at(0.2, seen.append, 0.2)
        sim.run(until=1.0)
        assert seen == [0.2, 0.5]
        assert sim.now == 1.0

    def test_nan_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().after(float("nan"), lambda: None)

    def test_cancel(self):
        sim = Simulation()
        seen = []
        handle = sim.at(1.0, lambda: seen.append("x"))
        sim.cancel(handle)
        sim.run()
        assert seen == []

    def test_exact_ties_fire_in_schedule_order(self):
        sim = Simulation()
        seen = []
        handles = [sim.at(7.0, seen.append, i) for i in range(10)]
        assert [h[SEQ] for h in handles] == sorted(h[SEQ] for h in handles)
        sim.run()
        assert seen == list(range(10))

    def test_out_of_order_schedules_fire_in_time_order(self):
        sim = Simulation()
        fired = []
        sim.at(3.0, fired.append, "c")
        sim.at(1.0, fired.append, "a")
        sim.at(2.0, fired.append, "b")
        assert sim.run() == 3.0
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_keep_seq_order(self):
        sim = Simulation()
        fired = []
        first = sim.at(1.0, fired.append, "first")
        second = sim.at(1.0, fired.append, "second")
        assert first[SEQ] < second[SEQ]
        sim.run(max_events=1)
        assert fired == ["first"]
        assert sim.pending_events == 1


class TestCancellation:
    def test_cancelled_events_skipped(self):
        sim = Simulation()
        seen = []
        h1 = sim.at(1.0, seen.append, 1.0)
        sim.at(2.0, seen.append, 2.0)
        sim.cancel(h1)
        assert sim.pending_events == 1
        assert sim.run() == 2.0
        assert seen == [2.0]
        assert sim.events_processed == 1

    def test_double_cancel_is_idempotent(self):
        sim = Simulation()
        h = sim.at(1.0, lambda: None)
        sim.cancel(h)
        sim.cancel(h)
        assert sim.pending_events == 0
        assert sim.cancelled_backlog == 1
        assert sim.run() == 0.0
        assert sim.events_processed == 0
        assert sim.cancelled_backlog == 0

    def test_run_over_only_cancelled_events_fires_nothing(self):
        assert Simulation().run() == 0.0
        sim = Simulation()
        fired = []
        sim.cancel(sim.at(1.0, fired.append, "cancelled"))
        assert sim.run() == 0.0
        assert fired == []
        assert sim.events_processed == 0
        assert sim.pending_events == 0

    def test_cancel_frees_references(self):
        sim = Simulation()
        payload = object()
        h = sim.at(1.0, lambda x: None, payload)
        sim.cancel(h)
        assert h[ARGS] == ()
        assert h[FN] is None

    def test_pending_events_counts_live_events(self):
        sim = Simulation()
        handles = [sim.at(float(i), lambda: None) for i in range(5)]
        sim.cancel(handles[2])
        sim.cancel(handles[4])
        assert sim.pending_events == 3
        assert sim.cancelled_backlog == 2
        sim.run()
        assert sim.events_processed == 3
        assert sim.pending_events == 0
        assert sim.cancelled_backlog == 0

    def test_simulation_is_the_only_cancel_path(self):
        # A handle that cancelled itself left the kernel's live count one
        # too high: the next drain raised a live-count/heap divergence.
        assert not hasattr(EventHandle, "cancel")

    def test_cancel_of_a_fired_handle_is_a_no_op(self):
        sim = Simulation()
        seen = []
        first = sim.at(1.0, seen.append, 1)
        sim.at(2.0, seen.append, 2)
        sim.at(3.0, seen.append, 3)
        sim.run(until=1.5)
        assert sim.pending_events == 2
        sim.cancel(first)  # already fired
        sim.cancel(first)
        assert sim.pending_events == 2
        assert sim.cancelled_backlog == 0
        sim.run()
        assert seen == [1, 2, 3]
        assert sim.pending_events == 0
        assert sim.events_processed == 3

    def test_cancel_of_a_fired_entry_leaves_both_counts(self):
        # A fired entry's fn is cleared, so cancel sees it as done, even
        # from inside its own callback: counting it dead would leave the
        # dead count above the heap's cancelled entries.
        sim = Simulation()
        entries = []
        entries.append(sim.at(1.0, lambda: sim.cancel(entries[0])))
        sim.at(2.0, lambda: None)
        sim.run(until=1.5)
        assert entries[0][FN] is None
        sim.cancel(entries[0])
        assert sim.pending_events == 1
        assert sim.cancelled_backlog == 0
        assert sim.run() == 2.0
        assert sim.events_processed == 2
        assert sim.pending_events == 0
        assert sim.cancelled_backlog == 0

    def test_corrupted_heap_raises_the_dead_count_divergence(self):
        sim = Simulation()
        sim.cancel(sim.at(1.0, lambda: None))
        sim._heap.clear()  # the dead entry vanishes behind the kernel's back
        with pytest.raises(SimulationError, match="dead-count/heap divergence"):
            sim.run()

    def test_backlog_after_until_counts_cancels_past_the_horizon(self):
        sim = Simulation()
        handles = [sim.at(float(t), lambda: None) for t in range(1, 21)]
        cancelled = [h for h in handles if h[SEQ] % 3 != 1]
        for h in cancelled:
            sim.cancel(h)
        horizon = 11.5
        sim.run(until=horizon)
        assert sim.now == horizon
        assert sim.cancelled_backlog == sum(h[TIME] > horizon for h in cancelled)
        assert sim.pending_events == sum(
            h[TIME] > horizon for h in handles if h not in cancelled
        )


class TestRunSemantics:
    def test_until_bounds_execution(self):
        sim = Simulation()
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.at(t, seen.append, t)
        end = sim.run(until=2.5)
        assert seen == [1.0, 2.0]
        assert end == 2.5  # time advances exactly to `until`
        assert sim.pending_events == 1

    def test_until_advances_past_last_event(self):
        sim = Simulation()
        sim.at(1.0, lambda: None)
        assert sim.run(until=10.0) == 10.0

    def test_resume_after_until(self):
        sim = Simulation()
        seen = []
        for t in (1.0, 3.0):
            sim.at(t, seen.append, t)
        sim.run(until=2.0)
        sim.run()
        assert seen == [1.0, 3.0]

    def test_max_events(self):
        sim = Simulation()
        for t in range(10):
            sim.at(float(t + 1), lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4

    def test_nan_until_rejected(self):
        # NaN fails every `time > until` test: the loop used to ignore
        # the horizon and fire a periodic timer until max_events.
        sim = Simulation()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.after(1.0, tick)

        sim.at(0.0, tick)
        with pytest.raises(SimulationError):
            sim.run(until=float("nan"), max_events=1000)
        assert ticks == []
        assert sim.now == 0.0
        assert sim.run(until=2.5) == 2.5
        assert ticks == [0.0, 1.0, 2.0]

    def test_negative_max_events_rejected(self):
        # It used to fire nothing yet still move the clock to `until`.
        sim = Simulation()
        seen = []
        sim.at(1.0, seen.append, 1.0)
        with pytest.raises(SimulationError):
            sim.run(until=5.0, max_events=-1)
        assert sim.now == 0.0
        assert sim.pending_events == 1
        sim.run(until=5.0, max_events=1)
        assert seen == [1.0]

    def test_max_events_cut_keeps_clock_before_due_events(self):
        # The clock used to move to `until` past the t=2 event, which the
        # next run then fired with `now` going from 5.0 back to 2.0.
        sim = Simulation()
        seen = []
        for t in (1.0, 2.0):
            sim.at(t, lambda: seen.append(sim.now))
        assert sim.run(until=5.0, max_events=1) == 1.0
        assert sim.run(until=6.0) == 6.0
        assert seen == [1.0, 2.0]

    def test_max_events_cut_ignores_cancelled_due_events(self):
        sim = Simulation()
        seen = []
        sim.at(1.0, seen.append, 1.0)
        sim.cancel(sim.at(2.0, seen.append, 2.0))
        sim.at(9.0, seen.append, 9.0)
        assert sim.run(until=5.0, max_events=1) == 5.0
        assert sim.cancelled_backlog == 0
        assert sim.run() == 9.0
        assert seen == [1.0, 9.0]

    def test_max_events_cut_drops_dead_tops_before_a_due_event(self):
        # Dead entries on top of a live due event: the cut drops them and
        # still stops the clock at the last fired event.
        sim = Simulation()
        seen = []
        sim.at(1.0, seen.append, 1.0)
        for t in (2.0, 2.0, 3.0):
            sim.cancel(sim.at(t, seen.append, t))
        sim.at(4.0, seen.append, 4.0)
        sim.at(9.0, seen.append, 9.0)
        assert sim.run(until=5.0, max_events=1) == 1.0
        assert sim.cancelled_backlog == 0
        assert sim.pending_events == 2
        assert sim.run(until=5.0) == 5.0
        assert seen == [1.0, 4.0]

    def test_stop_from_callback(self):
        sim = Simulation()
        seen = []
        sim.at(1.0, lambda: (seen.append(1), sim.stop()))
        sim.at(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1]

    def test_reentrant_run_rejected(self):
        sim = Simulation()
        failure = []

        def recurse():
            try:
                sim.run()
            except SimulationError:
                failure.append(True)

        sim.at(1.0, recurse)
        sim.run()
        assert failure == [True]

    def test_simultaneous_events_fifo(self):
        sim = Simulation()
        seen = []
        for i in range(5):
            sim.at(1.0, seen.append, i)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]


def run_random_program(seed, budget=300):
    """Drive one :class:`Simulation` through a seeded random program and
    check it, event by event, against a sorted-list oracle: the pending
    ``(time, order)`` keys, whose minimum must be the next event to fire.

    Callbacks schedule children at ``now`` (``at`` and ``after(0)``), a
    hair before ``now`` (clamped to it), later, and exactly at the run's
    ``until``; cancel pending handles; cancel handles that already fired
    (a no-op); cancel a burst of fresh handles, more than are pending, in
    the middle of ``run``; and call ``stop()``.  The program runs in
    segments with and without ``until`` and ``max_events``, and each
    segment's end state is checked: ``now``, ``events_processed``,
    ``pending_events``, and why the loop returned.  Returns the number of
    events fired and the number of cancel bursts.
    """
    rng = make_rng(seed, "simulation-program")
    sim = Simulation()
    pending = {}  # order -> (time, order, handle)
    fired = []  # (time, order) in firing order
    fired_handles = []
    state = {"orders": 0, "horizon": math.inf, "stopped": False, "bursts": 0}

    def schedule(time=None, delay=None):
        order = state["orders"]
        state["orders"] += 1
        if delay is None:
            handle = sim.at(time, fire, order)
            time = max(time, sim.now)
        else:
            handle = sim.after(delay, fire, order)
            time = sim.now + delay
        assert handle[TIME] == time
        pending[order] = (time, order, handle)

    def grid_time(scale):
        return sim.now + 0.25 * int(rng.integers(0, scale))

    def fire(order):
        assert (sim.now, order) == min(pending.values())[:2]
        assert sim.now <= state["horizon"]
        time, _, handle = pending.pop(order)
        fired.append((time, order))
        fired_handles.append(handle)
        assert sim.pending_events == len(pending)
        assert sim.events_processed == len(fired)
        budget_left = len(fired) < budget  # children stop past the budget
        for _ in range(int(rng.integers(1, 4)) if budget_left else 0):
            kind = rng.random()
            if kind < 0.15:
                schedule(time=sim.now)
            elif kind < 0.25:
                schedule(delay=0.0)
            elif kind < 0.30:
                schedule(time=sim.now - 1e-13)
            elif kind < 0.40 and math.isfinite(state["horizon"]):
                schedule(time=max(sim.now, state["horizon"]))
            elif kind < 0.70:
                schedule(time=grid_time(12))
            else:
                schedule(delay=float(rng.exponential(1.0)))
        action = rng.random()
        if action < 0.25 and pending:
            for _ in range(int(rng.integers(1, 3))):
                if not pending:
                    break
                victim = sorted(pending)[int(rng.integers(len(pending)))]
                sim.cancel(pending.pop(victim)[2])
        elif action < 0.40:
            sim.cancel(fired_handles[int(rng.integers(len(fired_handles)))])
        elif action < 0.43 and budget_left:
            first = state["orders"]
            for _ in range(len(pending) + 128):
                schedule(time=grid_time(40))
            for order in range(first, state["orders"]):
                sim.cancel(pending.pop(order)[2])
            state["bursts"] += 1
            schedule(time=sim.now)  # pushed over the burst's dead entries
        elif action < 0.45:
            sim.stop()
            state["stopped"] = True
        assert sim.pending_events == len(pending)

    for _ in range(int(rng.integers(5, 15))):
        schedule(time=grid_time(20))
    for segment in range(8):
        start_now = sim.now
        before = len(fired)
        kind = rng.random()
        until = max_events = None
        if segment == 7 or kind < 0.15:
            pass  # drain (bounded by the scheduling budget)
        elif kind < 0.25:
            until = start_now - 1.0  # a horizon in the past fires nothing
        else:
            until = start_now + 0.25 * int(rng.integers(0, 16))
            schedule(time=until)  # an event exactly at the horizon
        if segment != 7 and rng.random() < 0.4:
            max_events = before + int(rng.integers(0, 30))
        state["horizon"] = math.inf if until is None else until
        state["stopped"] = False
        end = sim.run(until=until, max_events=max_events)
        assert end == sim.now
        assert sim.events_processed == len(fired)
        assert sim.pending_events == len(pending)
        if max_events is not None:
            assert len(fired) <= max(max_events, before)
        last_time = fired[-1][0] if len(fired) > before else start_now
        if state["stopped"]:
            assert sim.now == last_time
            continue
        due = [key for key in pending.values() if until is None or key[0] <= until]
        assert (max_events is not None and len(fired) >= max_events) or not due
        # A run that max_events cut short with an event still due by
        # ``until`` stops at its last fired event; any other run with a
        # horizon ends exactly at it.
        expected = last_time
        if until is not None and expected < until and not due:
            expected = until
        assert sim.now == expected
    return len(fired), state["bursts"]


def run_cancel_trace(seed, ops=4000, cancel_bias=0.2):
    """Drive one :class:`Simulation` through a seeded trace of scheduling,
    cancels, cancel bursts and one-event runs, checked at every step
    against an oracle: the pending ``(time, order)`` keys, whose minimum
    must fire next, and the cancelled keys, whose heap entries
    (``cancelled_backlog``) stay until the loop passes them.  Times mix
    exact ties, near events and far-future outliers.  Returns the firing
    order as ``(time, order)`` keys.
    """
    rng = make_rng(seed, "simulation-cancel-trace", str(cancel_bias))
    sim = Simulation()
    live = {}  # order -> ((time, order), handle)
    dead = []  # heap of cancelled (time, order) keys
    fired = []  # orders in firing order
    keys = []  # order -> (time, order)
    cancels = 0

    def schedule(time):
        order = len(keys)
        handle = sim.at(time, fired.append, order)
        keys.append((handle[TIME], order))
        live[order] = (keys[order], handle)
        return order

    for _ in range(ops):
        r = rng.random()
        if r < 0.55 or not live:
            u = rng.random()
            if u < 0.10:
                schedule(sim.now + float(int(rng.integers(0, 3))))  # exact ties
            elif u < 0.18:
                schedule(sim.now + float(rng.exponential(2_000.0)))
            else:
                schedule(sim.now + float(rng.exponential(5.0)))
        elif r < 0.55 + cancel_bias:
            victim = sorted(live)[int(rng.integers(len(live)))]
            key, handle = live.pop(victim)
            sim.cancel(handle)
            heapq.heappush(dead, key)
            cancels += 1
        elif r < 0.555 + cancel_bias:
            for _ in range(len(live) + 128):  # a burst of cancelled timeouts
                order = schedule(sim.now + float(rng.exponential(5.0)))
                key, handle = live.pop(order)
                sim.cancel(handle)
                heapq.heappush(dead, key)
                cancels += 1
        else:
            expected = min(key for key, _ in live.values())
            sim.run(max_events=sim.events_processed + 1)
            assert keys[fired[-1]] == expected
            assert sim.now == expected[0]
            del live[expected[1]]
            while dead and dead[0] < expected:
                heapq.heappop(dead)
        assert sim.pending_events == len(live)
        assert sim.cancelled_backlog == len(dead)
    sim.run()
    assert sim.pending_events == 0
    assert sim.cancelled_backlog == 0
    order = [keys[o] for o in fired]
    assert order == sorted(order)
    assert len(order) + cancels == len(keys)
    return order


class TestRandomPrograms:
    def test_seeded_programs_match_the_oracle(self):
        """Thirty seeded random programs: exact firing order, counts and
        final clock against the oracle, with cancel bursts mid-run."""
        bursts = 0
        for seed in range(30):
            events, seed_bursts = run_random_program(seed)
            assert events > 50
            bursts += seed_bursts
        assert bursts > 0

    def test_seeded_cancel_traces_match_the_oracle(self):
        """Six seeds of mixed scheduling and cancel traffic: exact
        ``(time, order)`` firing order, pending count and dead-entry
        backlog against the oracle at every step."""
        for seed in range(6):
            order = run_cancel_trace(seed)
            assert len(order) > 500

    def test_cancel_heavy_trace_matches_the_oracle(self):
        """One seed where cancels crowd out firings, so dead entries pile
        up ahead of live ones: the firing order must still match."""
        assert len(run_cancel_trace(99, ops=3000, cancel_bias=0.38)) > 300
