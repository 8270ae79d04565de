"""The simulation's event calendar, seen through :class:`Simulation`.

A :class:`~repro.simulator.clock.Simulation` keeps its future-event list
(the event calendar) in an :class:`~repro.simulator.events.EventQueue`
with the default purge threshold.  The unit tests in
``test_event_queue.py`` drive the queue directly; these pin the same
contracts at the level every simulator component uses: ``Simulation.at``
/ ``cancel`` / ``run`` and the ``cancelled_backlog`` / ``event_purges``
gauges the obs layer exports.
"""

import pytest

from repro.errors import SimulationError
from repro.simulator.clock import Simulation
from repro.simulator.events import DEFAULT_PURGE_THRESHOLD, EventQueue


def _noop():
    pass


class TestCalendarMechanics:
    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()
        # A queue whose only event was cancelled is empty too.
        q = EventQueue()
        h = q.push(1.0, _noop)
        q.cancel(h)
        with pytest.raises(SimulationError):
            q.pop()
        # The simulation loop never pops it: nothing fires, no error.
        sim = Simulation()
        fired = []
        sim.cancel(sim.at(1.0, fired.append, "cancelled"))
        assert sim.run() == 0.0
        assert fired == []
        assert sim.events_processed == 0


class TestCalendarPurgeHeuristic:
    """The simulation's calendar compacts only when dead entries both
    exceed the default threshold and outnumber the live ones."""

    def test_threshold_validation(self):
        for bad in (0, -1):
            with pytest.raises(SimulationError):
                EventQueue(purge_threshold=bad)
        assert EventQueue(purge_threshold=1).purge_threshold == 1
        assert EventQueue().purge_threshold == DEFAULT_PURGE_THRESHOLD

    def test_no_purge_below_threshold(self):
        sim = Simulation()
        live = 6
        handles = [
            sim.at(float(i), _noop)
            for i in range(DEFAULT_PURGE_THRESHOLD + live)
        ]
        # Backlog reaches the threshold and outnumbers the live events,
        # but must *exceed* the threshold before a purge.
        for h in handles[:DEFAULT_PURGE_THRESHOLD]:
            sim.cancel(h)
        assert sim.event_purges == 0
        assert sim.cancelled_backlog == DEFAULT_PURGE_THRESHOLD
        assert sim.pending_events == live
        sim.run()
        assert sim.events_processed == live

    def test_no_purge_while_live_majority(self):
        sim = Simulation()
        total = 4 * DEFAULT_PURGE_THRESHOLD
        handles = [sim.at(float(i), _noop) for i in range(total)]
        # Backlog exceeds the threshold but live events stay the majority.
        dead = DEFAULT_PURGE_THRESHOLD + 10
        for h in handles[:dead]:
            sim.cancel(h)
        assert sim.event_purges == 0
        assert sim.cancelled_backlog == dead
        assert sim.pending_events == total - dead

    def test_purge_fires_when_dead_outnumber_live_and_threshold(self):
        sim = Simulation()
        live = DEFAULT_PURGE_THRESHOLD
        fired = []
        handles = [
            sim.at(float(i), fired.append, i)
            for i in range(2 * live + 1)
        ]
        for h in handles[:live]:
            sim.cancel(h)
        assert sim.event_purges == 0  # 64 dead vs 65 live: live majority
        sim.cancel(handles[live])
        assert sim.event_purges == 1  # 65 dead vs 64 live, 65 > threshold
        assert sim.cancelled_backlog == 0
        assert sim.pending_events == live
        sim.run()
        assert fired == list(range(live + 1, 2 * live + 1))

    def test_buckets_stay_bounded_under_churn(self):
        """Timer churn (arm and disarm a timeout forever) must not grow
        the calendar, and the live events still fire in order."""
        sim = Simulation()
        fired = []
        for i in range(4):
            sim.at(float(i), fired.append, i)
        for i in range(5000):
            sim.cancel(sim.at(100.0 + i, fired.append, "timeout"))
            assert sim.cancelled_backlog <= (
                2 * sim.pending_events + DEFAULT_PURGE_THRESHOLD + 1
            )
        assert sim.pending_events == 4
        assert sim.event_purges > 0
        sim.run()
        assert fired == [0, 1, 2, 3]
