"""Fleet-granularity fault injection: executes the ``server_crashes`` /
``server_slowdowns`` (and ``deadlines``) of a
:class:`~repro.faults.plan.FaultPlan` against a
:class:`~repro.fleet.fleet.Fleet`.

The split follows the plan vocabulary: worker-granularity faults
(``slowdowns``, ``crashes``, ``estimator_faults``) name a worker index
inside *one* process and are executed by the single-server
:class:`~repro.faults.FaultInjector`; a fleet plan names whole servers.
Mixing the two granularities in one plan is rejected here for the same
reason the single-server injector rejects fleet faults -- a plan must be
executable by exactly one injector, or "same plan, same seed, same run"
stops meaning anything.

Deadlines run on the same :class:`~repro.faults.deadlines.DeadlineTimer`
as the single-server injector, at fleet scope: the timer arms on
logical admission (``fleet.on_admit``), the expiry aborts the request
*wherever it lives* (any server, a frozen crashed server, or the
failover retry queue) through :meth:`Fleet.abort`, the retry is a fresh
fleet submission routed like any other, and the last expiry abandons
through :meth:`Fleet.abandon`.  Backoff jitter draws from the
``("fleet-faults", "jitter")`` stream.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ConfigurationError
from ..faults.deadlines import DeadlineTimer, trace_fault
from ..faults.plan import FaultPlan, ServerCrash, ServerSlowdown
from .fleet import Fleet

__all__ = ["FleetInjector"]


class FleetInjector:
    """Schedules a plan's server-granularity faults into a fleet's loop.

    Usage (``repro.experiments.fleet.run_fleet`` does this when given a
    plan)::

        injector = FleetInjector(fleet, plan)
        injector.install()
        sim.run(...)
        injector.counts
    """

    def __init__(self, fleet: Fleet, plan: FaultPlan) -> None:
        self.fleet = fleet
        self.plan = plan
        self.counts: Dict[str, int] = {
            "server_crashes": 0,
            "server_restarts": 0,
            "server_slowdowns": 0,
            "deadline_expiries": 0,
            "retries": 0,
            "abandoned": 0,
        }
        self._deadlines = DeadlineTimer(
            fleet, plan, self.counts, ("fleet-faults", "jitter")
        )

    def install(self) -> None:
        """Validate the plan against this fleet and schedule every fault."""
        plan = self.plan
        if plan.slowdowns or plan.crashes or plan.estimator_faults:
            raise ConfigurationError(
                "fault plan contains worker-granularity faults (slowdowns/"
                "crashes/estimator_faults); those name a worker inside one "
                "process -- run them through the single-server FaultInjector"
            )
        size = len(self.fleet.servers)
        for crash in plan.server_crashes:
            if crash.server >= size:
                raise ConfigurationError(
                    f"server crash names server {crash.server}, but the "
                    f"fleet has {size} servers"
                )
        for slowdown in plan.server_slowdowns:
            if slowdown.server >= size:
                raise ConfigurationError(
                    f"server slowdown names server {slowdown.server}, but "
                    f"the fleet has {size} servers"
                )
        sim = self.fleet.sim
        for crash in plan.server_crashes:
            sim.at(crash.at, self._crash, crash)
            if crash.restart_at is not None:
                sim.at(crash.restart_at, self._restore, crash)
        for slowdown in plan.server_slowdowns:
            sim.at(slowdown.start, self._begin_slowdown, slowdown)
            sim.at(slowdown.end, self._end_slowdown, slowdown)
        self._deadlines.arm(self.fleet.on_admit)

    # -- server faults -----------------------------------------------------

    def _crash(self, crash: ServerCrash) -> None:
        self.fleet.crash_server(crash.server)
        self.counts["server_crashes"] += 1

    def _restore(self, crash: ServerCrash) -> None:
        self.fleet.restore_server(crash.server)
        self.counts["server_restarts"] += 1

    def _begin_slowdown(self, slowdown: ServerSlowdown) -> None:
        self.fleet.set_server_speed(slowdown.server, slowdown.factor)
        self.counts["server_slowdowns"] += 1
        trace_fault(
            self.fleet,
            "server_slowdown_begin",
            server=slowdown.server,
            factor=slowdown.factor,
        )

    def _end_slowdown(self, slowdown: ServerSlowdown) -> None:
        self.fleet.set_server_speed(slowdown.server, 1.0)
        trace_fault(self.fleet, "server_slowdown_end", server=slowdown.server)
