"""Unit tests for workload sources driving a live server."""

import pytest

from repro.core import make_scheduler
from repro.errors import ConfigurationError
from repro.simulator import (
    BackloggedSource,
    Simulation,
    ThreadPoolServer,
    TraceSource,
)
from repro.workloads import (
    Backlogged,
    FixedCost,
    PoissonArrivals,
    TenantSpec,
    attach_specs,
)


def build_server(num_threads=2, rate=1.0):
    sim = Simulation()
    scheduler = make_scheduler("wfq", num_threads=num_threads, thread_rate=rate)
    server = ThreadPoolServer(
        sim, scheduler, num_threads=num_threads, rate=rate, refresh_interval=None
    )
    return sim, server


class TestTraceSource:
    def test_replays_records_at_times(self):
        sim, server = build_server()
        seen = []
        server.on_submit(lambda r: seen.append((sim.now, r.tenant_id, r.cost)))
        records = [(0.5, "A", "x", 1.0), (1.5, "B", "y", 2.0)]
        TraceSource(server, records).start()
        sim.run()
        assert seen == [(0.5, "A", 1.0), (1.5, "B", 2.0)]

    def test_speed_compresses_time(self):
        sim, server = build_server()
        seen = []
        server.on_submit(lambda r: seen.append(sim.now))
        TraceSource(server, [(2.0, "A", "x", 1.0)], speed=2.0).start()
        sim.run()
        assert seen == [1.0]

    def test_unsorted_records_rejected(self):
        sim, server = build_server()
        source = TraceSource(server, [(2.0, "A", "x", 1.0), (1.0, "A", "x", 1.0)])
        source.start()
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_invalid_speed(self):
        sim, server = build_server()
        with pytest.raises(ConfigurationError):
            TraceSource(server, [], speed=0.0)


class TestBackloggedSource:
    def test_maintains_window(self):
        sim, server = build_server(num_threads=1)
        source = BackloggedSource(server, "A", lambda: ("x", 1.0), window=3)
        source.start()
        sim.run(until=0.0)
        # 1 running + 2 queued.
        assert server.scheduler.backlog == 2
        assert server.busy_workers == 1

    def test_submits_on_completion(self):
        sim, server = build_server(num_threads=1)
        source = BackloggedSource(server, "A", lambda: ("x", 1.0), window=1)
        source.start()
        sim.run(until=5.5)
        # Completions at t=1..5 each trigger one submission, plus the
        # initial prime: 6 submitted, 5 completed, 1 in flight.
        assert source.submitted == 6
        assert server.completed_requests == 5

    def test_limit_bounds_submissions(self):
        sim, server = build_server(num_threads=1)
        source = BackloggedSource(server, "A", lambda: ("x", 1.0), window=2, limit=4)
        source.start()
        sim.run()
        assert source.submitted == 4
        assert server.completed_requests == 4

    def test_window_validation(self):
        sim, server = build_server()
        with pytest.raises(ConfigurationError):
            BackloggedSource(server, "A", lambda: ("x", 1.0), window=0)

    def test_start_time_delays_priming(self):
        sim, server = build_server()
        seen = []
        server.on_submit(lambda r: seen.append(sim.now))
        BackloggedSource(
            server, "A", lambda: ("x", 1.0), window=2, start_time=3.0
        ).start()
        sim.run(until=3.0)
        assert seen == [3.0, 3.0]


class TestAttachSpecs:
    def test_mixed_population(self):
        sim, server = build_server(num_threads=2, rate=10.0)
        specs = [
            TenantSpec(
                tenant_id="closed",
                api_costs={"x": FixedCost(1.0)},
                arrivals=Backlogged(window=2),
            ),
            TenantSpec(
                tenant_id="open",
                api_costs={"y": FixedCost(2.0)},
                arrivals=PoissonArrivals(rate=20.0),
            ),
        ]
        sources = attach_specs(server, specs, seed=1, duration=3.0)
        assert len(sources) == 2
        sim.run(until=3.0)
        assert server.completed_cost("closed") > 0
        assert server.completed_cost("open") > 0

    def test_open_loop_requires_duration(self):
        from repro.errors import WorkloadError

        sim, server = build_server()
        specs = [
            TenantSpec(
                tenant_id="open",
                api_costs={"y": FixedCost(2.0)},
                arrivals=PoissonArrivals(rate=20.0),
            )
        ]
        with pytest.raises(WorkloadError):
            attach_specs(server, specs, seed=1)

    def test_same_seed_same_arrivals_across_schedulers(self):
        """The controlled-comparison requirement: identical workload
        regardless of scheduler."""
        def arrivals_for(scheduler_name):
            sim = Simulation()
            scheduler = make_scheduler(scheduler_name, num_threads=2)
            server = ThreadPoolServer(
                sim, scheduler, num_threads=2, rate=1.0, refresh_interval=None
            )
            seen = []
            server.on_submit(lambda r: seen.append((sim.now, r.tenant_id, r.cost)))
            specs = [
                TenantSpec(
                    tenant_id="open",
                    api_costs={"y": FixedCost(2.0)},
                    arrivals=PoissonArrivals(rate=30.0),
                )
            ]
            attach_specs(server, specs, seed=5, duration=2.0)
            sim.run(until=2.0)
            return seen

        assert arrivals_for("wfq") == arrivals_for("2dfq")
