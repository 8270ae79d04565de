"""Regression tests for the epoch-anchored sampling grids.

Three periodic components -- ``MetricsCollector``, ``FleetCollector``
and ``HealthMonitor`` -- once scheduled their first event at
``at(interval)``, handing a *duration* to the absolute-time parameter.
Attached to a simulation whose clock had already advanced past one
interval, that asked the simulator to schedule an event in the past and
raised ``SimulationError``.  The fix anchors each grid at the attach
instant: events now fire at ``epoch + k * interval``.  These tests pin
both the no-crash property and the anchored grid itself, so they are
what fails if any of the three goes back to ``at(interval)``.
"""

from __future__ import annotations

import pytest

from repro.core.registry import make_scheduler
from repro.fleet import Fleet, FleetCollector, HealthMonitor
from repro.metrics import MetricsCollector
from repro.simulator.clock import Simulation
from repro.simulator.server import ThreadPoolServer
from repro.simulator.sources import BackloggedSource


def _server(sim: Simulation) -> ThreadPoolServer:
    scheduler = make_scheduler("wfq", num_threads=2, thread_rate=10.0)
    return ThreadPoolServer(
        sim, scheduler, num_threads=2, rate=10.0, refresh_interval=None
    )


def test_metrics_collector_attaches_mid_run() -> None:
    sim = Simulation()
    server = _server(sim)
    sim.run(until=0.5)  # the clock is already past several intervals

    collector = MetricsCollector(server, sample_interval=0.1)
    BackloggedSource(
        server, "A", lambda: ("x", 1.0), window=2, start_time=sim.now
    ).start()
    sim.run(until=1.5)

    series = collector.result().service_series("A")
    # The grid is anchored at the attach instant, not at t=0: first
    # sample one interval after attachment, then every interval.
    assert series.times[0] == pytest.approx(0.6)
    assert series.times[-1] == pytest.approx(1.5)
    deltas = series.times[1:] - series.times[:-1]
    assert deltas == pytest.approx([0.1] * len(deltas))


def test_fleet_collector_attaches_mid_run() -> None:
    sim = Simulation()
    servers = [_server(sim), _server(sim)]
    fleet = Fleet(sim, servers)
    sim.run(until=0.25)

    collector = FleetCollector(fleet, sample_interval=0.1)
    BackloggedSource(
        fleet, "A", lambda: ("x", 1.0), window=4, start_time=sim.now
    ).start()
    sim.run(until=1.0)

    series = collector.result().service_series("A")
    assert series.times[0] == pytest.approx(0.35)
    # The capacity timeline's initial point carries the attach epoch,
    # not a fabricated t=0 entry.
    assert collector.capacity_timeline[0][0] == pytest.approx(0.25)


def test_health_monitor_starts_mid_run() -> None:
    sim = Simulation()
    servers = [_server(sim)]
    fleet = Fleet(sim, servers, failover=None)  # no auto-started monitor
    sim.run(until=1.0)

    monitor = HealthMonitor(fleet, interval=0.05)
    monitor.start()  # previously: SimulationError (event in the past)
    sim.run(until=1.2)

    # Probes fire on the anchored grid 1.05, 1.10, ... -- one probe per
    # server per tick, and none retroactively before start().
    assert monitor.probes >= 3
    assert monitor.probes == monitor._ticks * len(fleet.servers)


def test_fresh_attachment_grid_is_unchanged() -> None:
    """Anchoring at t=0 degenerates to the original absolute grid, so
    pre-existing runs are bit-identical."""
    sim = Simulation()
    server = _server(sim)
    collector = MetricsCollector(server, sample_interval=0.1)
    BackloggedSource(server, "A", lambda: ("x", 1.0), window=2).start()
    sim.run(until=2.0)
    series = collector.result().service_series("A")
    assert series.times.size == 20
    assert series.times[0] == pytest.approx(0.1)
    assert series.times[-1] == pytest.approx(2.0)
