"""Core scheduling framework: the 2DFQ contribution and all baselines.

Public surface:

* :class:`Request` -- the unit of work;
* :class:`Scheduler` / :class:`VirtualTimeScheduler` -- extension points
  for custom policies;
* concrete schedulers (``WFQScheduler`` .. ``TwoDFQEScheduler``);
* :func:`make_scheduler` -- registry-based construction.
"""

from .fifo import FIFOScheduler
from .msf2q import MSF2QScheduler
from .registry import SCHEDULER_CLASSES, make_scheduler, scheduler_names
from .request import Request, RequestPhase
from .round_robin import RoundRobinScheduler
from .scheduler import MIN_COST, Scheduler, TenantState
from .selection import SelectionIndex
from .sfq import SFQScheduler
from .twodfq import TwoDFQEScheduler, TwoDFQScheduler
from .virtual_time import VirtualClock
from .vt_base import VirtualTimeScheduler
from .wf2q import WF2QScheduler
from .wfq import WFQScheduler

__all__ = [
    "Request",
    "RequestPhase",
    "Scheduler",
    "TenantState",
    "VirtualClock",
    "VirtualTimeScheduler",
    "SelectionIndex",
    "MIN_COST",
    "FIFOScheduler",
    "RoundRobinScheduler",
    "WFQScheduler",
    "WF2QScheduler",
    "MSF2QScheduler",
    "SFQScheduler",
    "TwoDFQScheduler",
    "TwoDFQEScheduler",
    "make_scheduler",
    "scheduler_names",
    "SCHEDULER_CLASSES",
]
