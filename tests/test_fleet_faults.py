"""Fleet-granularity faults: the ServerCrash/ServerSlowdown plan DSL,
FleetInjector dispatch, the single-server/fleet injector boundary, and
the flight-recorder dump pin for crash/failover trigger events.
"""

from __future__ import annotations

import pytest

from repro.core.registry import make_scheduler
from repro.core.request import Request
from repro.errors import ConfigurationError
from repro.faults import (
    DeadlinePolicy,
    FaultInjector,
    FaultPlan,
    ServerCrash,
    ServerSlowdown,
    WorkerSlowdown,
)
from repro.fleet import FailoverPolicy, Fleet, FleetInjector
from repro.obs import Tracer
from repro.obs.events import FAULT
from repro.obs.exporters import flight_payload
from repro.simulator.clock import Simulation
from repro.simulator.server import ThreadPoolServer
from repro.simulator.sources import BackloggedSource


def build_fleet(num_servers=3, rate=100.0, **kwargs):
    sim = Simulation()
    servers = [
        ThreadPoolServer(sim, make_scheduler("2dfq", num_threads=2), 2, rate=rate)
        for _ in range(num_servers)
    ]
    return sim, Fleet(sim, servers, router="round-robin", **kwargs)


class TestFleetFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            server_crashes=(
                ServerCrash(server=1, at=0.5, restart_at=2.0),
                ServerCrash(server=2, at=1.0),
            ),
            server_slowdowns=(
                ServerSlowdown(server=0, start=0.2, end=0.8, factor=0.25),
            ),
            seed=3,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert plan.has_fleet_faults
        assert not plan.is_empty

    def test_file_round_trip(self, tmp_path):
        plan = FaultPlan(server_crashes=(ServerCrash(server=0, at=1.0),))
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path) == plan

    def test_committed_fleet_chaos_plan_loads(self):
        plan = FaultPlan.load("tests/data/fleet_crash_plan.json")
        assert plan.has_fleet_faults
        assert plan.server_crashes[0].server == 1
        assert plan.server_slowdowns[0].factor == 0.5

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ServerCrash(server=-1, at=1.0),
            lambda: ServerCrash(server=0, at=-0.1),
            lambda: ServerCrash(server=0, at=1.0, restart_at=0.5),
            lambda: ServerSlowdown(server=0, start=1.0, end=0.5, factor=0.5),
            lambda: ServerSlowdown(server=0, start=0.0, end=1.0, factor=-1.0),
            lambda: ServerSlowdown(server=-2, start=0.0, end=1.0, factor=0.5),
        ],
    )
    def test_invalid_fleet_faults_rejected(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_worker_injector_rejects_fleet_plans(self):
        sim = Simulation()
        server = ThreadPoolServer(
            sim, make_scheduler("2dfq", num_threads=2), 2
        )
        plan = FaultPlan(server_crashes=(ServerCrash(server=0, at=1.0),))
        with pytest.raises(ConfigurationError, match="fleet-granularity"):
            FaultInjector(server, plan).install()

    def test_fleet_injector_rejects_worker_plans(self):
        _, fleet = build_fleet()
        plan = FaultPlan(
            slowdowns=(
                WorkerSlowdown(worker=0, start=0.0, end=1.0, factor=0.5),
            )
        )
        with pytest.raises(ConfigurationError, match="worker-granularity"):
            FleetInjector(fleet, plan).install()


class TestFleetInjectorDispatch:
    def test_crash_and_restart_dispatch(self):
        sim, fleet = build_fleet(health_interval=0.05)
        plan = FaultPlan(
            server_crashes=(ServerCrash(server=1, at=0.3, restart_at=1.0),)
        )
        injector = FleetInjector(fleet, plan)
        injector.install()
        sim.run(until=2.0)
        assert injector.counts["server_crashes"] == 1
        assert injector.counts["server_restarts"] == 1
        assert fleet.counts["server_crashes"] == 1
        assert fleet.counts["server_restores"] == 1
        assert fleet.down == frozenset()  # detected down, then back up
        assert fleet.counts["detections"] == 1
        assert fleet.counts["recoveries"] == 1

    def test_slowdown_stretches_completion(self):
        # cost 50 at rate 100 normally takes 0.5s; at factor 0.5 for the
        # whole run it takes 1.0s.
        sim, fleet = build_fleet(num_servers=1, failover=None)
        plan = FaultPlan(
            server_slowdowns=(
                ServerSlowdown(server=0, start=0.0, end=10.0, factor=0.5),
            )
        )
        injector = FleetInjector(fleet, plan)
        injector.install()
        request = Request(tenant_id="a", cost=50.0)
        fleet.submit(request)
        sim.run(until=10.0)
        assert injector.counts["server_slowdowns"] == 1
        assert request.completion_time == pytest.approx(1.0)

    def test_slowed_server_stays_routable(self):
        sim, fleet = build_fleet(num_servers=2, health_interval=0.05)
        plan = FaultPlan(
            server_slowdowns=(
                ServerSlowdown(server=0, start=0.0, end=5.0, factor=0.1),
            )
        )
        FleetInjector(fleet, plan).install()
        for i in range(4):
            fleet.submit(Request(tenant_id="a", cost=1.0))
        sim.run(until=5.0)
        # Degraded, not dead: never marked down, work still lands there.
        assert fleet.down == frozenset()
        assert fleet.counts["detections"] == 0
        assert fleet.counts["completed"] == 4

    def test_fleet_deadline_expiry_retries_then_abandons(self):
        sim, fleet = build_fleet(num_servers=2, failover=None)
        # Jam both servers so the probe request can never finish in time.
        for server in fleet.servers:
            for _ in range(4):
                server.submit(Request(tenant_id="bg", cost=1000.0))
        plan = FaultPlan(
            deadlines=(
                DeadlinePolicy(
                    deadline=0.1,
                    max_retries=2,
                    backoff=0.01,
                    tenants=("probe",),
                ),
            )
        )
        injector = FleetInjector(fleet, plan)
        injector.install()
        abandoned = []
        fleet.on_abandon(abandoned.append)
        fleet.submit(Request(tenant_id="probe", cost=5.0))
        sim.run(until=5.0)
        assert injector.counts["deadline_expiries"] == 3
        assert injector.counts["retries"] == 2
        assert injector.counts["abandoned"] == 1
        assert [r.tenant_id for r in abandoned] == ["probe"]

    def test_fleet_deadline_fault_sequence_is_pinned(self):
        # The scenario above, traced: the exact fault rows (times carry
        # the ("fleet-faults", "jitter") backoff draws) and the counts.
        sim, fleet = build_fleet(num_servers=2, failover=None)
        tracer = Tracer("fleet-deadlines")
        fleet.attach_tracer(tracer)
        for server in fleet.servers:
            for _ in range(4):
                server.submit(Request(tenant_id="bg", cost=1000.0))
        plan = FaultPlan(
            deadlines=(
                DeadlinePolicy(
                    deadline=0.1,
                    max_retries=2,
                    backoff=0.01,
                    tenants=("probe",),
                ),
            )
        )
        injector = FleetInjector(fleet, plan)
        injector.install()
        probe = Request(tenant_id="probe", cost=5.0)
        fleet.submit(probe)
        sim.run(until=5.0)
        rows = []
        for kind, t, _, tenant, keys, values in tracer.rows:
            if kind == FAULT:
                data = dict(zip(keys, values))
                assert tenant == "probe" and data["seqno"] == probe.seqno
                rows.append((t, data["fault"], data.get("attempt")))
        assert rows == [
            (0.1, "deadline_expired", None),
            (0.11087545593330252, "retry", 1),
            (0.21087545593330254, "deadline_expired", None),
            (0.2318920003594401, "retry", 2),
            (0.3318920003594401, "deadline_expired", None),
            (0.3318920003594401, "abandoned", None),
        ]
        assert injector.counts == {
            "server_crashes": 0,
            "server_restarts": 0,
            "server_slowdowns": 0,
            "deadline_expiries": 3,
            "retries": 2,
            "abandoned": 1,
        }
        assert fleet.counts["admitted"] == 3
        assert fleet.counts["routed"] == 3
        assert fleet.counts["abandoned"] == 1
        assert fleet.counts["completed"] == 0


class TestFleetFlightRecorder:
    """Fleet crash/failover rows are flight-recorder triggers; the dumps
    are the export-time fold of the run's rows."""

    def make_traced_fleet(self, **kwargs):
        sim, fleet = build_fleet(health_interval=0.02, **kwargs)
        tracer = Tracer("fleet-chaos")
        fleet.attach_tracer(tracer)
        return sim, fleet, tracer

    def test_crash_and_failover_trigger_dumps(self):
        sim, fleet, tracer = self.make_traced_fleet()
        source = BackloggedSource(
            fleet, "a", lambda: ("A", 5.0), window=4, limit=40
        )
        source.start()
        sim.at(0.3, fleet.crash_server, 1)
        sim.run(until=10.0)
        dumps = flight_payload(tracer.rows, 64)["dumps"]
        triggers = [d["trigger"]["fault"] for d in dumps]
        # The crash itself, the monitor marking it down, and the drain.
        assert triggers[:3] == ["server_crash", "server_down", "failover"]
        assert all(d["trigger"]["kind"] == FAULT for d in dumps)
        # Each dump carries ring context (the ROUTE/ENQUEUE/... events
        # leading up to the trigger).
        assert all(len(d["ring"]) >= 1 for d in dumps)

    def test_dump_storm_is_capped(self):
        sim, fleet, tracer = self.make_traced_fleet(
            failover=FailoverPolicy(max_retries=0)
        )
        # Crash every server: crash + detection + drain + abandonment
        # events per server blow well past the cap.
        for i in range(3):
            fleet.submit(Request(tenant_id="a", cost=50.0))
            fleet.crash_server(i)
        sim.run(until=2.0)
        payload = flight_payload(tracer.rows, 16)
        assert len(payload["dumps"]) == 4
        triggers = sum(row[0] == FAULT for row in tracer.rows)
        assert payload["suppressed_dumps"] == triggers - 4 > 0
