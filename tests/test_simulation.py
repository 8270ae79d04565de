"""Unit tests for the discrete-event simulation loop."""

import pytest

from repro.errors import SimulationError
from repro.simulator.clock import Simulation


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
