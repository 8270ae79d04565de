"""Property test: crash + failover conserves requests on every scheduler.

Hypothesis drives randomized crash plans (any subset of servers short of
the whole fleet, random crash/restart times, any router)
against every registered scheduler with ``REPRO_VALIDATE=1`` semantics:
each server's scheduler runs inside the invariant watchdog and a
:class:`FleetConservationLedger` audits the cluster in strict mode, so
any lost request, double completion, or double charge raises
``InvariantViolation`` rather than silently passing.
"""

from __future__ import annotations

import os
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.core.registry import make_scheduler, scheduler_names
from repro.faults import FaultPlan, ServerCrash
from repro.fleet import FailoverPolicy, Fleet, FleetInjector, router_names
from repro.simulator.clock import Simulation
from repro.simulator.rng import make_rng
from repro.simulator.server import ThreadPoolServer
from repro.simulator.sources import BackloggedSource
from repro.validate import (
    FleetConservationLedger,
    ValidatingScheduler,
    env_validate,
)

ALL_SCHEDULERS = scheduler_names()
HORIZON = 40.0


@st.composite
def crash_scenarios(draw):
    num_servers = draw(st.integers(min_value=2, max_value=4))
    # Crash any proper subset so at least one survivor can absorb the
    # drained work.
    num_crashes = draw(st.integers(min_value=1, max_value=num_servers - 1))
    victims = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_servers - 1),
            min_size=num_crashes,
            max_size=num_crashes,
            unique=True,
        )
    )
    crashes = []
    for server in victims:
        at = draw(st.floats(min_value=0.05, max_value=1.5))
        restart = draw(
            st.one_of(
                st.none(),
                st.floats(min_value=at + 0.1, max_value=3.0),
            )
        )
        crashes.append(ServerCrash(server=server, at=at, restart_at=restart))
    return {
        "num_servers": num_servers,
        "plan": FaultPlan(server_crashes=tuple(crashes), seed=draw(st.integers(0, 99))),
        "router": draw(st.sampled_from(router_names())),
        "seed": draw(st.integers(min_value=0, max_value=99)),
    }


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(ALL_SCHEDULERS), scenario=crash_scenarios())
def test_crash_failover_conserves_requests(name, scenario):
    with mock.patch.dict(os.environ, {"REPRO_VALIDATE": "1"}):
        assert env_validate()
        sim = Simulation()
        servers = []
        for _ in range(scenario["num_servers"]):
            kwargs = {"initial_estimate": 10.0} if name.endswith("-e") else {}
            sched = ValidatingScheduler(
                make_scheduler(name, num_threads=2, **kwargs)
            )
            servers.append(ThreadPoolServer(sim, sched, 2, rate=100.0))
        fleet = Fleet(
            sim,
            servers,
            router=scenario["router"],
            failover=FailoverPolicy(max_retries=2, backoff=0.01),
            health_interval=0.05,
            seed=scenario["seed"],
        )
        ledger = FleetConservationLedger(fleet, strict=True)
        for tenant in ("a", "b", "c"):
            rng = make_rng(scenario["seed"], "conservation", tenant)
            source = BackloggedSource(
                fleet,
                tenant,
                lambda rng=rng: ("A", float(rng.uniform(1.0, 20.0))),
                window=3,
                limit=15,
            )
            source.start()
        FleetInjector(fleet, scenario["plan"]).install()
        # Strict mode: any double completion / double charge / lost
        # request raises InvariantViolation during or after the run.
        sim.run(until=HORIZON)
        ledger.verify()
        assert ledger.errors == []
        counts = fleet.counts
        pending = fleet.pending_seqnos()
        # Every admitted request reached exactly one terminal outcome or
        # is still accounted for (frozen on an undetected corpse, or
        # awaiting a failover retry) -- never lost, never duplicated.
        assert (
            counts["completed"] + counts["abandoned"] + len(pending)
            == counts["admitted"]
        )
        assert counts["rejected"] + counts["admitted"] == 45
