"""Sim-time health monitoring / failure detection for a fleet.

A crashed server does not announce its death; the fleet learns of it the
way a real load balancer does -- by probing.  The monitor ticks every
``interval`` simulated seconds on the same absolute grid the metrics
collector uses (tick ``k`` fires at ``k * interval``, so the cadence
never drifts no matter when work happens in between) and checks each
server's liveness.  ``failure_threshold`` consecutive missed probes mark
the server down (:meth:`Fleet.mark_down` -- routing stops, failover
drains); the first healthy probe after a restart marks it back up.

The crash-to-detection window is therefore bounded by
``interval * failure_threshold`` -- during it, the router keeps feeding
the dead server, which is precisely the stranded-work mass the failover
drain then has to recover.  The ``figfleet`` figure reports this window
alongside the fairness cost of the crash.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from .fleet import Fleet

__all__ = ["HealthMonitor"]


class HealthMonitor:
    """Periodic liveness probes driving ``mark_down`` / ``mark_up``."""

    def __init__(
        self,
        fleet: "Fleet",
        interval: float = 0.05,
        failure_threshold: int = 1,
    ) -> None:
        # An infinite interval never probes, so a crash would never be
        # detected; NaN would fail later, inside the event loop.
        if not (math.isfinite(interval) and interval > 0):
            raise ConfigurationError(
                f"health interval must be positive and finite, got {interval}"
            )
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.fleet = fleet
        self.interval = float(interval)
        self.failure_threshold = int(failure_threshold)
        self.probes = 0
        self._misses: List[int] = [0] * len(fleet.servers)
        self._ticks = 0
        self._started = False
        self._epoch = 0.0

    def start(self) -> None:
        """Arm the first probe (idempotent)."""
        if self._started:
            return
        self._started = True
        # Probes sit on the grid epoch + k * interval: anchoring at the
        # start() instant keeps a monitor started mid-run from asking
        # the simulator to schedule its first probe in the past.
        self._epoch = self.fleet.sim.now
        self._schedule()

    def _schedule(self) -> None:
        self.fleet.sim.at(
            self._epoch + (self._ticks + 1) * self.interval, self._tick
        )

    def _tick(self) -> None:
        self._ticks += 1
        fleet = self.fleet
        down = fleet.down
        for index, server in enumerate(fleet.servers):
            self.probes += 1
            if server.crashed:
                self._misses[index] += 1
                if (
                    self._misses[index] >= self.failure_threshold
                    and index not in down
                ):
                    fleet.mark_down(index)
            else:
                self._misses[index] = 0
                if index in down:
                    fleet.mark_up(index)
        fleet.update_gauges()
        self._schedule()
