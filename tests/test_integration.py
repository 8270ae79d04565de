"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import Simulation, ThreadPoolServer, make_scheduler, scheduler_names
from repro.metrics import MetricsCollector
from repro.simulator import BackloggedSource
from repro.workloads import attach_specs, named_tenants


class TestFullStackSmoke:
    @pytest.mark.parametrize("name", ["fifo", "wfq", "wf2q", "2dfq", "2dfq-e",
                                      "wfq-e", "msf2q", "sfq", "round-robin"])
    def test_server_runs_every_scheduler(self, name):
        sim = Simulation()
        scheduler = make_scheduler(name, num_threads=4, thread_rate=100.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=4, rate=100.0, refresh_interval=0.05
        )
        collector = MetricsCollector(server, sample_interval=0.1)
        BackloggedSource(server, "A", lambda: ("x", 1.0), window=2).start()
        BackloggedSource(server, "B", lambda: ("y", 25.0), window=2).start()
        sim.run(until=3.0)
        result = collector.result()
        assert server.completed_requests > 10
        assert result.latency_stats("A").count > 0
        # Conservation: total service == capacity * time when saturated.
        total = sum(
            result.service_series(t).actual[-1] for t in result.tenants()
        )
        assert total == pytest.approx(4 * 100.0 * 3.0, rel=0.02)

    def test_named_tenants_replay_end_to_end(self):
        sim = Simulation()
        scheduler = make_scheduler("2dfq", num_threads=8, thread_rate=1.0e6)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=8, rate=1.0e6, refresh_interval=None
        )
        collector = MetricsCollector(server, sample_interval=0.1)
        attach_specs(server, named_tenants(), seed=3, duration=2.0)
        sim.run(until=2.0)
        result = collector.result()
        served = [t for t in result.tenants() if
                  result.service_series(t).actual[-1] > 0]
        assert len(served) >= 10  # nearly all of T1..T12 get service


class TestCrossSchedulerInvariants:
    def test_total_service_is_scheduler_invariant_under_saturation(self):
        """Work conservation: a saturated server does the same total
        work regardless of scheduling policy."""
        totals = {}
        for name in ("fifo", "wfq", "wf2q", "2dfq", "2dfq-e"):
            sim = Simulation()
            scheduler = make_scheduler(name, num_threads=4, thread_rate=100.0)
            server = ThreadPoolServer(
                sim, scheduler, num_threads=4, rate=100.0,
                refresh_interval=0.05,
            )
            collector = MetricsCollector(server, sample_interval=0.1)
            for i in range(6):
                cost = 1.0 if i % 2 == 0 else 40.0
                BackloggedSource(
                    server, f"T{i}", lambda c=cost: ("x", c), window=2
                ).start()
            sim.run(until=4.0)
            result = collector.result()
            totals[name] = sum(
                result.service_series(t).actual[-1] for t in result.tenants()
            )
        values = list(totals.values())
        assert max(values) - min(values) < 0.05 * max(values)

    def test_gps_reference_equals_actual_totals(self):
        """GPS serves exactly as much total work as the real server when
        both are continuously backlogged."""
        sim = Simulation()
        scheduler = make_scheduler("wfq", num_threads=2, thread_rate=50.0)
        server = ThreadPoolServer(
            sim, scheduler, num_threads=2, rate=50.0, refresh_interval=None
        )
        collector = MetricsCollector(server, sample_interval=0.1)
        BackloggedSource(server, "A", lambda: ("x", 2.0), window=3).start()
        BackloggedSource(server, "B", lambda: ("y", 30.0), window=3).start()
        sim.run(until=5.0)
        result = collector.result()
        actual_total = sum(
            result.service_series(t).actual[-1] for t in ("A", "B")
        )
        gps_total = sum(result.service_series(t).gps[-1] for t in ("A", "B"))
        # GPS can deliver at most what arrived; both systems saturate.
        assert gps_total == pytest.approx(actual_total, rel=0.05)

    def test_registry_names_all_construct_and_run(self):
        for name in scheduler_names():
            sim = Simulation()
            scheduler = make_scheduler(name, num_threads=2, thread_rate=10.0)
            server = ThreadPoolServer(
                sim, scheduler, num_threads=2, rate=10.0, refresh_interval=0.1
            )
            BackloggedSource(server, "A", lambda: ("x", 1.0), window=1,
                             limit=5).start()
            sim.run()
            assert server.completed_requests == 5, name


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        def run_once():
            sim = Simulation()
            scheduler = make_scheduler("2dfq-e", num_threads=4,
                                       thread_rate=100.0)
            server = ThreadPoolServer(
                sim, scheduler, num_threads=4, rate=100.0,
                refresh_interval=0.01,
            )
            collector = MetricsCollector(server, sample_interval=0.1)
            attach_specs(server, named_tenants()[:6], seed=9, duration=1.0)
            sim.run(until=1.0)
            result = collector.result()
            return {
                t: result.service_series(t).actual[-1]
                for t in result.tenants()
            }

        assert run_once() == run_once()
