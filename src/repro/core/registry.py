"""Scheduler registry: build any scheduler (and its paper ^E variant) by name.

The names follow the paper's terminology:

=============  ==============================================================
``fifo``       shared FIFO queue (the unmanaged baseline)
``round-robin`` per-tenant round robin (cost-oblivious)
``wfq``        WFQ / MSFQ with oracle costs
``wf2q``       work-conserving multi-thread WF2Q with oracle costs
``msf2q``      Blanquer & Özden's multi-server WF2Q
``sfq``        start-time fair queuing
``2dfq``       Two-Dimensional Fair Queuing with oracle costs (§4)
``wfq-e``      WFQ with per-tenant/API EMA estimation (§6.2 baseline)
``wf2q-e``     WF2Q with per-tenant/API EMA estimation (§6.2 baseline)
``2dfq-e``     2DFQ with pessimistic estimation -- Figure 7 (§5)
=============  ==============================================================

All ^E variants share the retroactive- and refresh-charging bookkeeping,
matching the paper's methodology ("we applied them to all algorithms, and
our experiment results only reflect the differences between scheduling
logic and estimation strategy", §6.2).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Type

from ..estimation import CostEstimator, EMAEstimator
from .fifo import FIFOScheduler
from .msf2q import MSF2QScheduler
from .round_robin import RoundRobinScheduler
from .scheduler import Scheduler
from .sfq import SFQScheduler
from .twodfq import TwoDFQEScheduler, TwoDFQScheduler
from .vt_base import VirtualTimeScheduler
from .wf2q import WF2QScheduler
from .wfq import WFQScheduler

__all__ = ["make_scheduler", "scheduler_names", "SCHEDULER_CLASSES"]

#: Plain (non-estimated) scheduler classes by registry name.
SCHEDULER_CLASSES: Dict[str, Type[Scheduler]] = {
    cls.name: cls
    for cls in (
        FIFOScheduler,
        RoundRobinScheduler,
        WFQScheduler,
        WF2QScheduler,
        MSF2QScheduler,
        SFQScheduler,
        TwoDFQScheduler,
        TwoDFQEScheduler,
    )
}


def _ema_variant(
    base: Type[VirtualTimeScheduler],
) -> Callable[..., Scheduler]:
    """Factory for a scheduler driven by the paper's EMA estimator."""

    def build(
        num_threads: int,
        thread_rate: float = 1.0,
        estimator: Optional[CostEstimator] = None,
        alpha: float = 0.99,
        initial_estimate: float = 1.0,
        **kwargs: Any,
    ) -> Scheduler:
        if estimator is None:
            estimator = EMAEstimator(alpha=alpha, initial_estimate=initial_estimate)
        return base(num_threads, thread_rate, estimator=estimator, **kwargs)

    return build


_FACTORIES: Dict[str, Callable[..., Scheduler]] = {
    name: cls for name, cls in SCHEDULER_CLASSES.items()
}
_FACTORIES["wfq-e"] = _ema_variant(WFQScheduler)
_FACTORIES["wf2q-e"] = _ema_variant(WF2QScheduler)


def scheduler_names() -> list[str]:
    """All registered scheduler names, sorted."""
    return sorted(_FACTORIES)


def make_scheduler(
    name: str, num_threads: int, thread_rate: float = 1.0, **kwargs: Any
) -> Scheduler:
    """Construct a scheduler by registry name.

    >>> make_scheduler("2dfq", num_threads=16, thread_rate=1000.0).name
    '2dfq'
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        known = ", ".join(scheduler_names())
        raise KeyError(f"unknown scheduler {name!r}; known: {known}") from None
    return factory(num_threads, thread_rate, **kwargs)
