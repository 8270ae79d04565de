"""Estimator fault wrapper: outages and bias windows around any estimator.

Wraps a real :class:`~repro.estimation.base.CostEstimator` and perturbs
it only inside the plan's :class:`~repro.faults.plan.EstimatorFault`
windows; outside every window it is a transparent pass-through, so an
empty window list costs one comparison per estimate.

Selection-index coherence: a virtual-time scheduler files each
backlogged tenant under its cached head key and assumes the tenant's
head estimate changes only through ``observe()`` for that tenant (the
scheduler re-files the tenant then).  A fault window opening or closing
shifts *every* estimate at once, violating that assumption -- so the
:class:`~repro.faults.injector.FaultInjector` schedules a
``reindex_backlogged()`` at each window boundary, and within a window
the outage fallback is frozen at its window-entry value (observations
during the outage are lost anyway) so estimates cannot drift outside
the observe path.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..core.request import Request
from ..estimation.base import CostEstimator
from .plan import EstimatorFault

__all__ = ["FaultyEstimator"]


class FaultyEstimator(CostEstimator):
    """Decorates an estimator with time-windowed outage/bias faults.

    Parameters
    ----------
    inner:
        The estimator being wrapped; consulted outside fault windows and
        (for bias windows) as the base of the skewed estimate.
    faults:
        The plan's estimator fault windows.
    clock:
        Zero-argument callable returning the current simulated time
        (``lambda: sim.now``); window membership is evaluated per call.
    """

    name = "faulty"

    def __init__(
        self,
        inner: CostEstimator,
        faults: Tuple[EstimatorFault, ...],
        clock: Callable[[], float],
    ) -> None:
        self._inner = inner
        self._faults = tuple(faults)
        self._clock = clock
        self._max_seen = 0.0
        # Outage fallbacks frozen at window entry, keyed by window index.
        self._frozen: dict[int, float] = {}
        self.dropped_observations = 0

    @property
    def inner(self) -> CostEstimator:
        return self._inner

    def _active(self) -> Tuple[Optional[int], Optional[EstimatorFault]]:
        now = self._clock()
        for index, fault in enumerate(self._faults):
            if fault.active_at(now):
                return index, fault
        return None, None

    def estimate(self, request: Request) -> float:
        index, fault = self._active()
        if fault is None:
            return self._inner.estimate(request)
        if fault.mode == "bias":
            return self._inner.estimate(request) * fault.bias
        # Outage: pessimistic fallback, frozen for the window's duration.
        fallback = self._frozen.get(index)
        if fallback is None:
            if fault.fallback is not None:
                fallback = fault.fallback
            else:
                fallback = max(self._max_seen, self._inner.estimate(request))
            self._frozen[index] = fallback
        return fallback

    def observe(self, request: Request, actual_cost: float) -> None:
        self._max_seen = max(self._max_seen, actual_cost)
        _, fault = self._active()
        if fault is not None and fault.mode == "outage":
            self.dropped_observations += 1
            return  # measurements are lost during the outage
        self._inner.observe(request, actual_cost)

    def reset(self) -> None:
        self._inner.reset()
        self._max_seen = 0.0
        self._frozen.clear()
        self.dropped_observations = 0

    def attach_tracer(self, tracer) -> None:
        super().attach_tracer(tracer)
        self._inner.attach_tracer(tracer)

    def __repr__(self) -> str:
        return f"FaultyEstimator({self._inner!r}, windows={len(self._faults)})"
