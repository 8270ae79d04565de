"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`
against one :class:`~repro.simulator.server.ThreadPoolServer`.

Every fault is realized as ordinary discrete events in the run's own
simulation loop, so fault timing interleaves deterministically with the
workload: same plan + same seed = same run.  Installation is strictly
additive -- a run without an injector (or with an empty plan) executes
exactly the pre-fault code paths, which is what keeps the fault-free
differential tests bit-identical.

The injector reports what it does through the run's tracer (``fault``
events + ``faults.*`` counters) when one is attached, and keeps its own
summary counts either way (surfaced in the run manifest).
"""

from __future__ import annotations

from typing import Dict

from ..errors import ConfigurationError
from ..simulator.server import ThreadPoolServer
from .deadlines import DeadlineTimer, trace_fault
from .estimator import FaultyEstimator
from .plan import FaultPlan, WorkerCrash, WorkerSlowdown

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules a plan's faults into a server's simulation loop.

    Usage (the experiment runner does this when
    ``config.fault_plan`` is set)::

        injector = FaultInjector(server, plan)
        injector.install()                # slowdowns, crashes, deadlines
        injector.wire_estimator(scheduler)  # estimator outage/bias windows
        sim.run(...)
        injector.counts                   # summary for the manifest
    """

    def __init__(self, server: ThreadPoolServer, plan: FaultPlan) -> None:
        self.server = server
        self.plan = plan
        self.counts: Dict[str, int] = {
            "slowdowns": 0,
            "crashes": 0,
            "restarts": 0,
            "deadline_expiries": 0,
            "retries": 0,
            "abandoned": 0,
        }
        self._deadlines = DeadlineTimer(
            server, plan, self.counts, ("faults", "jitter")
        )

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Schedule every worker/deadline fault; idempotence is the
        caller's concern (install once per run)."""
        if self.plan.has_fleet_faults:
            raise ConfigurationError(
                "fault plan contains fleet-granularity faults "
                "(server_crashes/server_slowdowns); a single-server run "
                "cannot execute them -- run the plan through a "
                "repro.fleet.Fleet + FleetInjector instead"
            )
        sim = self.server.sim
        workers = len(self.server.workers)
        for slowdown in self.plan.slowdowns:
            if slowdown.worker >= workers:
                continue  # plan written for a larger pool; skip quietly
            sim.at(slowdown.start, self._begin_slowdown, slowdown)
            sim.at(slowdown.end, self._end_slowdown, slowdown)
        for crash in self.plan.crashes:
            if crash.worker >= workers:
                continue
            sim.at(crash.at, self._crash, crash)
            if crash.restart_at is not None:
                sim.at(crash.restart_at, self._restore, crash)
        self._deadlines.arm(self.server.on_submit)

    def wire_estimator(self, scheduler) -> None:
        """Wrap the scheduler's estimator in a
        :class:`~repro.faults.estimator.FaultyEstimator` and schedule a
        selection-index rebuild at every window boundary (estimates jump
        for all tenants at once there; see the coherence note in
        :mod:`repro.faults.estimator`).  No-op when the plan has no
        estimator faults or the scheduler has no swappable estimator."""
        if not self.plan.estimator_faults:
            return
        if not hasattr(scheduler, "set_estimator"):
            return
        sim = self.server.sim
        faulty = FaultyEstimator(
            scheduler.estimator, self.plan.estimator_faults, clock=lambda: sim.now
        )
        scheduler.set_estimator(faulty)
        reindex = getattr(scheduler, "reindex_backlogged", None)
        for fault in self.plan.estimator_faults:
            sim.at(fault.start, self._estimator_edge, fault, "open", reindex)
            sim.at(fault.end, self._estimator_edge, fault, "close", reindex)

    # -- worker faults ----------------------------------------------------------

    def _begin_slowdown(self, slowdown: WorkerSlowdown) -> None:
        self.server.set_worker_speed(slowdown.worker, slowdown.factor)
        self.counts["slowdowns"] += 1
        trace_fault(
            self.server,
            "slowdown_begin",
            worker=slowdown.worker,
            factor=slowdown.factor,
        )

    def _end_slowdown(self, slowdown: WorkerSlowdown) -> None:
        self.server.set_worker_speed(slowdown.worker, 1.0)
        trace_fault(self.server, "slowdown_end", worker=slowdown.worker)

    def _crash(self, crash: WorkerCrash) -> None:
        interrupted = self.server.crash_worker(
            crash.worker, redispatch=crash.redispatch
        )
        self.counts["crashes"] += 1
        trace_fault(
            self.server,
            "worker_crash",
            tenant=interrupted.tenant_id if interrupted is not None else None,
            worker=crash.worker,
            interrupted=interrupted.seqno if interrupted is not None else None,
            redispatch=crash.redispatch,
        )

    def _restore(self, crash: WorkerCrash) -> None:
        self.server.restore_worker(crash.worker)
        self.counts["restarts"] += 1
        trace_fault(self.server, "worker_restart", worker=crash.worker)

    def _estimator_edge(self, fault, edge: str, reindex) -> None:
        if reindex is not None:
            reindex()
        trace_fault(self.server, f"estimator_{fault.mode}_{edge}")
