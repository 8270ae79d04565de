"""The fleet tier: routing, health detection, crash failover, hedging,
admission control, and the figfleet acceptance contrast.

The scenarios drive a real multi-server simulation end to end (shared
``Simulation``, per-server schedulers, closed-loop sources through the
``SubmitTarget`` protocol) rather than poking fleet internals, so they
double as integration tests of the exact-refund ``cancel()`` path across
servers.
"""

from __future__ import annotations

import pytest

from repro.core.registry import make_scheduler
from repro.core.request import Request
from repro.errors import ConfigurationError
from repro.experiments.fleet import (
    PROBE_TENANT,
    fleet_crash_plan,
    run_fleet,
    run_figfleet,
)
from repro.faults import FaultPlan, ServerCrash
from repro.fleet import (
    FailoverPolicy,
    Fleet,
    FleetCollector,
    FleetInjector,
    make_router,
    router_names,
)
from repro.simulator.clock import Simulation
from repro.simulator.rng import make_rng
from repro.simulator.server import ThreadPoolServer
from repro.simulator.sources import BackloggedSource
from repro.validate import FleetConservationLedger


def build_fleet(
    num_servers=4,
    scheduler="2dfq",
    num_threads=2,
    rate=100.0,
    **kwargs,
):
    sim = Simulation()
    servers = [
        ThreadPoolServer(
            sim,
            make_scheduler(scheduler, num_threads=num_threads),
            num_threads,
            rate=rate,
        )
        for _ in range(num_servers)
    ]
    return sim, Fleet(sim, servers, **kwargs)


def backlogged(fleet, tenant, cost=2.0, window=4, limit=None, seed=1):
    rng = make_rng(seed, "costs", tenant)
    source = BackloggedSource(
        fleet,
        tenant,
        lambda: ("A", cost * float(rng.uniform(0.5, 1.5))),
        window=window,
        limit=limit,
    )
    source.start()
    return source


class TestRouters:
    def test_registry(self):
        assert router_names() == [
            "least-backlog",
            "random",
            "round-robin",
            "tenant-hash",
        ]
        with pytest.raises(ConfigurationError, match="unknown router"):
            make_router("zeal")

    def test_round_robin_cycles(self):
        sim, fleet = build_fleet(num_servers=3, router="round-robin")
        request = Request(tenant_id="A", cost=1.0)
        choices = [fleet.router.route(request, [0, 1, 2]) for _ in range(6)]
        assert choices == [0, 1, 2, 0, 1, 2]

    def test_random_is_seeded(self):
        _, fleet_a = build_fleet(router="random", seed=7)
        _, fleet_b = build_fleet(router="random", seed=7)
        request = Request(tenant_id="A", cost=1.0)
        picks_a = [fleet_a.router.route(request, [0, 1, 2, 3]) for _ in range(20)]
        picks_b = [fleet_b.router.route(request, [0, 1, 2, 3]) for _ in range(20)]
        assert picks_a == picks_b
        assert len(set(picks_a)) > 1

    def test_least_backlog_prefers_empty_server(self):
        sim, fleet = build_fleet(num_servers=2, router="least-backlog")
        for _ in range(6):
            fleet.servers[0].submit(Request(tenant_id="bg", cost=50.0))
        fleet.submit(Request(tenant_id="A", cost=1.0))
        assert fleet._owner and set(fleet._live[1])  # went to server 1

    def test_tenant_hash_is_sticky_and_stable_under_crash(self):
        _, fleet = build_fleet(num_servers=4, router="tenant-hash")
        router = fleet.router
        healthy = [0, 1, 2, 3]
        homes = {
            t: router.route(Request(tenant_id=t, cost=1.0), healthy)
            for t in ("a", "b", "c", "d", "e", "f", "g", "h")
        }
        # Sticky: repeated routes agree.
        for t, home in homes.items():
            assert router.route(Request(tenant_id=t, cost=1.0), healthy) == home
        # Consistent: removing one server only moves that server's tenants.
        dead = homes["a"]
        survivors = [i for i in healthy if i != dead]
        for t, home in homes.items():
            moved = router.route(Request(tenant_id=t, cost=1.0), survivors)
            if home != dead:
                assert moved == home, t
            else:
                assert moved in survivors


class TestFleetBasics:
    def test_submit_target_protocol_round_trip(self):
        sim, fleet = build_fleet()
        backlogged(fleet, "a", limit=20)
        backlogged(fleet, "b", limit=20)
        sim.run(until=10.0)
        assert fleet.counts["admitted"] == 40
        assert fleet.counts["completed"] == 40
        assert fleet.counts["rejected"] == 0
        assert not fleet.pending_seqnos()

    def test_service_aggregates_across_servers(self):
        sim, fleet = build_fleet(num_servers=2, router="round-robin")
        backlogged(fleet, "a", limit=10)
        sim.run(until=10.0)
        total = sum(s.completed_cost("a") for s in fleet.servers)
        assert fleet.service_received("a") == pytest.approx(total)
        assert all(s.completed_requests > 0 for s in fleet.servers)

    def test_admission_control_rejects_and_recovers(self):
        sim, fleet = build_fleet(
            num_servers=2,
            admission_limit=1.0,
            reject_retry_delay=0.05,
        )
        backlogged(fleet, "a", cost=20.0, window=16, limit=40)
        sim.run(until=60.0)
        assert fleet.counts["rejected"] > 0
        assert fleet.counts["completed"] > 0
        # Every submission is accounted for: the closed loop is told
        # about rejections (after reject_retry_delay) and moves on.
        assert (
            fleet.counts["completed"] + fleet.counts["rejected"] == 40
        )
        assert not fleet.pending_seqnos()

    def test_rejects_when_no_server_is_healthy(self):
        sim, fleet = build_fleet(num_servers=2, health_interval=0.01)
        fleet.crash_server(0)
        fleet.crash_server(1)
        sim.run(until=0.05)  # both detected
        assert fleet.down == frozenset({0, 1})
        fleet.submit(Request(tenant_id="a", cost=1.0))
        assert fleet.counts["rejected"] == 1
        assert fleet.counts["admitted"] == 0


class TestCrashAndFailover:
    def test_crash_freezes_and_restore_resumes(self):
        # No failover: a crashed server strands its work; restore
        # resumes the frozen in-flight requests from retained progress.
        sim, fleet = build_fleet(num_servers=2, failover=None, router="round-robin")
        backlogged(fleet, "a", cost=10.0, limit=12)
        sim.at(0.05, fleet.crash_server, 0)
        sim.run(until=2.0)
        stuck = len(fleet._live[0])
        assert fleet.servers[0].crashed
        assert stuck > 0
        assert fleet.counts["completed"] < 12
        fleet.restore_server(0)
        sim.run(until=10.0)
        assert fleet.counts["completed"] == 12

    def test_detection_waits_for_probe_window(self):
        sim, fleet = build_fleet(
            num_servers=2,
            health_interval=0.1,
            failure_threshold=2,
        )
        sim.at(0.11, fleet.crash_server, 0)
        sim.run(until=0.25)
        assert fleet.down == frozenset()  # one missed probe, not two
        sim.run(until=0.35)
        assert fleet.down == frozenset({0})
        assert fleet.counts["detections"] == 1

    def test_failover_drains_and_recovers_all_requests(self):
        sim, fleet = build_fleet(
            num_servers=3,
            router="round-robin",
            health_interval=0.02,
        )
        ledger = FleetConservationLedger(fleet)
        backlogged(fleet, "a", cost=5.0, window=6, limit=60)
        backlogged(fleet, "b", cost=5.0, window=6, limit=60)
        sim.at(0.3, fleet.crash_server, 1)
        sim.run(until=30.0)
        assert fleet.counts["failovers"] == 1
        assert fleet.counts["failover_retries"] > 0
        assert fleet.counts["completed"] == 120
        assert fleet.counts["abandoned"] == 0
        ledger.verify()
        assert ledger.errors == []

    def test_recovery_marks_server_up_and_routes_to_it(self):
        sim, fleet = build_fleet(num_servers=2, health_interval=0.02)
        sim.at(0.1, fleet.crash_server, 0)
        sim.at(0.5, fleet.restore_server, 0)
        backlogged(fleet, "a", cost=2.0)
        sim.run(until=1.0)
        assert fleet.counts["recoveries"] == 1
        assert fleet.down == frozenset()

    def test_exhausted_retry_budget_abandons_to_source(self):
        # Both servers die; the drained requests burn their retries
        # against an all-down fleet and are abandoned.
        sim, fleet = build_fleet(
            num_servers=2,
            router="round-robin",
            health_interval=0.02,
            failover=FailoverPolicy(max_retries=1, backoff=0.01),
        )
        abandoned = []
        fleet.on_abandon(abandoned.append)
        backlogged(fleet, "a", cost=50.0, window=4, limit=4)
        sim.at(0.1, fleet.crash_server, 0)
        sim.at(0.1, fleet.crash_server, 1)
        sim.run(until=5.0)
        assert fleet.counts["abandoned"] == 4
        assert len(abandoned) == 4
        assert fleet.counts["completed"] == 0

    def test_refund_is_exact_after_cross_server_reroute(self):
        # A drained request re-routed to a survivor must be charged
        # exactly once: reported usage equals true cost at completion.
        sim, fleet = build_fleet(
            num_servers=2, router="round-robin", health_interval=0.02
        )
        done = []
        fleet.on_complete(done.append)
        backlogged(fleet, "a", cost=30.0, window=2, limit=2)
        sim.at(0.05, fleet.crash_server, 0)
        sim.run(until=10.0)
        assert len(done) == 2
        for request in done:
            assert request.reported_usage == pytest.approx(request.cost)


class TestHedging:
    def test_first_completion_wins_and_loser_is_refunded(self):
        sim, fleet = build_fleet(
            num_servers=2,
            router="round-robin",
            failover=FailoverPolicy(hedge=True),
        )
        done = []
        fleet.on_complete(done.append)
        backlogged(fleet, "a", cost=4.0, window=2, limit=30)
        sim.run(until=20.0)
        assert fleet.counts["hedged"] == 30
        assert fleet.counts["completed"] == 30
        assert len(done) == 30
        # 60 copies routed, 30 logical completions.
        assert fleet.counts["routed"] == 60
        assert not fleet.pending_seqnos()

    def test_hedge_survives_crash_of_either_copy(self):
        sim, fleet = build_fleet(
            num_servers=2,
            router="round-robin",
            health_interval=0.02,
            failover=FailoverPolicy(hedge=True),
        )
        ledger = FleetConservationLedger(fleet)
        backlogged(fleet, "a", cost=5.0, window=4, limit=40)
        sim.at(0.2, fleet.crash_server, 0)
        sim.run(until=30.0)
        assert fleet.counts["completed"] == 40
        ledger.verify()
        assert ledger.errors == []


class TestFigFleet:
    def test_crash_degrades_and_failover_restores(self):
        # The acceptance contrast: with failover the fleet stays within
        # a small factor of healthy throughput and keeps survivor lag
        # bounded; without it, completions collapse.
        duration = 2.0
        plan = fleet_crash_plan(duration)
        common = dict(duration=duration, router="round-robin", validate=True)
        healthy = run_fleet(plan=None, **common)
        crash = run_fleet(plan=plan, failover=None, **common)
        failover = run_fleet(plan=plan, **common)
        n_healthy = healthy.counts["completed"]
        n_crash = crash.counts["completed"]
        n_failover = failover.counts["completed"]
        assert n_crash < 0.75 * n_healthy  # measurable degradation
        assert n_failover > 0.9 * n_crash / 0.75  # recovery
        assert n_failover > n_crash
        # Survivor lag stays bounded under failover: within a small
        # factor of the healthy run's worst lag.
        fair = 16.0 * 1000.0 / 12.0
        worst = {
            name: max(
                run.metrics.max_abs_lag(t) / fair
                for t in run.metrics.tenants()
            )
            for name, run in (
                ("healthy", healthy),
                ("failover", failover),
            )
        }
        assert worst["failover"] < 3.0 * max(worst["healthy"], 0.25)
        assert failover.counts["failover_retries"] > 0

    def test_run_figfleet_shape(self):
        result = run_figfleet(duration=1.0, num_servers=2)
        assert set(result.runs) == {"healthy", "crash", "failover"}
        assert set(result.ablation) == set(router_names())
        rows = result.rows()
        assert len(rows) == 3
        assert all(len(row) == 6 for row in rows)
        assert PROBE_TENANT in result.runs["healthy"].metrics.tenants()
        assert result.worst_survivor_lag("healthy") >= 0.0

    def test_figfleet_needs_two_servers(self):
        with pytest.raises(ValueError, match="at least 2 servers"):
            run_figfleet(duration=1.0, num_servers=1)


class TestFleetCollector:
    def test_gps_rerates_on_detection(self):
        sim, fleet = build_fleet(
            num_servers=2, router="round-robin", health_interval=0.05
        )
        collector = FleetCollector(fleet, sample_interval=0.05)
        backlogged(fleet, "a", cost=2.0)
        sim.at(0.4, fleet.crash_server, 0)
        sim.run(until=1.0)
        metrics = collector.result()
        # Timeline: full capacity, then the post-detection halving.
        assert metrics.capacity_timeline[0] == (0.0, 400.0)
        assert metrics.capacity_timeline[-1][1] == pytest.approx(200.0)
        assert "a" in metrics.tenants()
        series = metrics.service_series("a")
        assert series.actual.size > 0 and series.gps.size > 0

    @pytest.mark.parametrize(
        "settings",
        [
            {"sample_interval": 0.0},
            {"sample_interval": float("inf")},
            {"sample_interval": float("nan")},
            {"warmup": float("nan")},
            {"warmup": float("inf")},
            {"warmup": -0.5},
        ],
    )
    def test_rejects_sampling_that_records_nothing(self, settings):
        # A NaN warmup used to fail every `t >= warmup` test, so a run
        # completing requests recorded no latency and no sample.
        _, fleet = build_fleet(num_servers=2)
        with pytest.raises(ValueError):
            FleetCollector(fleet, **settings)

    def test_validation_errors_surface(self):
        sim, fleet = build_fleet(num_servers=2)
        ledger = FleetConservationLedger(fleet, strict=False)
        request = Request(tenant_id="a", cost=1.0)
        fleet.submit(request)
        sim.run(until=1.0)
        # Forge a duplicate completion: the ledger must flag it.
        for fn in fleet._complete_listeners:
            fn(request)
        assert any("completed 2 times" in e for e in ledger.errors)


class TestConfigErrors:
    def test_fleet_rejects_empty_and_cross_sim_servers(self):
        sim = Simulation()
        with pytest.raises(ConfigurationError, match="at least one server"):
            Fleet(sim, [])
        other = Simulation()
        stray = ThreadPoolServer(
            other, make_scheduler("fifo", num_threads=1), 1
        )
        with pytest.raises(ConfigurationError, match="different Simulation"):
            Fleet(sim, [stray])

    def test_failover_policy_validation(self):
        with pytest.raises(ConfigurationError):
            FailoverPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            FailoverPolicy(growth=0.5)

    def test_injector_rejects_unknown_server(self):
        sim, fleet = build_fleet(num_servers=2)
        plan = FaultPlan(server_crashes=(ServerCrash(server=5, at=1.0),))
        injector = FleetInjector(fleet, plan)
        with pytest.raises(ConfigurationError, match="names server 5"):
            injector.install()
