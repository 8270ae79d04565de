"""Unit tests for the discrete-event simulation loop."""

import math

import pytest

from repro.errors import SimulationError
from repro.simulator.clock import Simulation
from repro.simulator.events import DEFAULT_PURGE_THRESHOLD
from repro.simulator.rng import make_rng


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
    (a no-op); cancel a burst of fresh handles, enough for the event heap
    to compact in the middle of ``run``; and call ``stop()``.  The program
    runs in segments with and without ``until`` and ``max_events``, and
    each segment's end state is checked: ``now``, ``events_processed``,
    ``pending_events``, and why the loop returned.  Returns the number of
    events fired and the number of compactions a callback triggered.
    """
    rng = make_rng(seed, "simulation-program")
    sim = Simulation()
    pending = {}  # order -> (time, order, handle)
    fired = []  # (time, order) in firing order
    fired_handles = []
    state = {"orders": 0, "horizon": math.inf, "stopped": False, "purges": 0}

    def schedule(time=None, delay=None):
        order = state["orders"]
        state["orders"] += 1
        if delay is None:
            handle = sim.at(time, fire, order)
            time = max(time, sim.now)
        else:
            handle = sim.after(delay, fire, order)
            time = sim.now + delay
        assert handle.time == time
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
            before = sim.event_purges
            first = state["orders"]
            for _ in range(len(pending) + 2 * DEFAULT_PURGE_THRESHOLD):
                schedule(time=grid_time(40))
            for order in range(first, state["orders"]):
                sim.cancel(pending.pop(order)[2])
            assert sim.event_purges > before
            state["purges"] += sim.event_purges - before
            schedule(time=sim.now)  # pushed after the in-run compaction
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
    return len(fired), state["purges"]


class TestRandomPrograms:
    def test_seeded_programs_match_the_oracle(self):
        """Thirty seeded random programs: exact firing order, counts and
        final clock against the oracle, with compactions mid-run."""
        for seed in range(30):
            events, purges = run_random_program(seed)
            assert events > 50
            assert purges > 0
