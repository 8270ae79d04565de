"""Request model shared by every scheduler and the simulator.

A :class:`Request` is the unit of work in a multi-tenant shared process:
one API invocation by one tenant, with a *true* resource cost that is in
general unknown to the scheduler at schedule time (paper §1, §3.2).

The object carries three groups of state:

* immutable identity -- tenant, API name, true cost, arrival time;
* scheduling bookkeeping -- the cost the scheduler *charged* when it
  dispatched the request and the remaining pre-paid credit used by
  retroactive/refresh charging (paper §5, Figure 7);
* lifecycle timestamps -- dispatch/completion wallclock times and the
  worker-thread index, filled in by the simulator.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..units import Cost, Duration, SimTime, Weight

__all__ = ["Request", "RequestPhase", "restart_seqnos"]

_SEQUENCE = itertools.count()


def restart_seqnos() -> None:
    """Number the requests created from now on from 0 again.

    The experiment runners call this where a run starts, so a run's
    seqnos -- and every artifact that records them -- do not depend on
    what the process ran before.  Seqnos are only ever compared within
    one run (tie-breaks, fleet ownership maps), so that is all their
    uniqueness has to cover.
    """
    global _SEQUENCE
    _SEQUENCE = itertools.count()


class RequestPhase:
    """Lifecycle phases of a request (plain constants, not an Enum, to keep
    comparisons cheap in the simulator's inner loop)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    #: Removed from the scheduler before completion (client timeout or
    #: worker crash).  A cancelled request may be re-submitted -- crash
    #: re-dispatch and deadline retries do -- and then re-enters QUEUED.
    CANCELLED = "cancelled"


class Request:
    """One tenant request flowing through the scheduler.

    A plain slotted class with a hand-written ``__init__``: one is built
    per simulated request, so construction is a single Python call.

    Parameters
    ----------
    tenant_id:
        Identifier of the tenant (flow) that issued the request.
    cost:
        True resource cost in abstract cost units.  The scheduler must not
        read this unless it is driven with the oracle estimator; the
        simulator uses it to determine execution time.
    api:
        API name the request invokes (``"A"`` .. ``"K"`` for the
        Azure-like workload model).  Cost estimators key their state on
        ``(tenant_id, api)`` as described in paper §5.
    arrival_time:
        Wallclock arrival time in seconds.  Filled by the server on
        submission when left at the default ``-1.0``.
    weight:
        Weight of the issuing tenant, cached on the request for
        convenience.
    seqno:
        Sequence number; ``None`` (the default) draws the next one.

    The remaining keyword arguments preset the scheduler's and the
    simulator's bookkeeping fields below (tests build requests in a
    given phase that way).
    """

    __slots__ = (
        "tenant_id",
        "cost",
        "api",
        "arrival_time",
        "weight",
        "seqno",
        "charged_cost",
        "credit",
        "reported_usage",
        "phase",
        "dispatch_time",
        "completion_time",
        "thread_id",
        "source",
    )

    def __init__(
        self,
        tenant_id: str,
        cost: Cost,
        api: str = "default",
        arrival_time: SimTime = -1.0,
        weight: Weight = 1.0,
        seqno: Optional[int] = None,
        charged_cost: Cost = 0.0,
        credit: Cost = 0.0,
        reported_usage: Cost = 0.0,
        phase: str = RequestPhase.QUEUED,
        dispatch_time: SimTime = -1.0,
        completion_time: SimTime = -1.0,
        thread_id: int = -1,
        source: Optional[Any] = None,
    ) -> None:
        self.tenant_id = tenant_id
        self.cost: Cost = cost
        self.api = api
        self.arrival_time: SimTime = arrival_time
        self.weight: Weight = weight
        #: Monotonically increasing sequence number, unique within a run
        #: (:func:`restart_seqnos`); the final deterministic tie-breaker
        #: in every scheduler.  Read from the module's counter at call
        #: time, so a restart takes effect for the next request.
        self.seqno: int = next(_SEQUENCE) if seqno is None else seqno

        # -- scheduling bookkeeping (owned by the scheduler) --------------
        #: Cost the scheduler charged the tenant's virtual clock at
        #: dispatch time (``l_r`` in the paper; equals ``cost`` under
        #: oracle costs).
        self.charged_cost: Cost = charged_cost
        #: Remaining pre-paid credit ``c_f^j`` from Figure 7 -- how much of
        #: the charged cost has not yet been matched by measured usage.
        self.credit: Cost = credit
        #: Measured resource usage reported to the scheduler so far
        #: (through refresh charging and completion).
        self.reported_usage: Cost = reported_usage

        # -- lifecycle (owned by the simulator) ----------------------------
        self.phase = phase
        self.dispatch_time: SimTime = dispatch_time
        self.completion_time: SimTime = completion_time
        self.thread_id = thread_id

        #: Optional back-reference to the workload source that issued the
        #: request; closed-loop sources use it to submit follow-up work.
        self.source: Optional[Any] = source

    @property
    def key(self) -> tuple[str, str]:
        """Estimator key: requests are grouped per tenant per API."""
        return (self.tenant_id, self.api)

    @property
    def latency(self) -> Duration:
        """Queueing + service time; only valid once the request is DONE."""
        if self.completion_time < 0 or self.arrival_time < 0:
            raise ValueError("latency undefined before completion")
        return self.completion_time - self.arrival_time

    @property
    def queueing_delay(self) -> Duration:
        """Time spent waiting in the scheduler before dispatch."""
        if self.dispatch_time < 0 or self.arrival_time < 0:
            raise ValueError("queueing delay undefined before dispatch")
        return self.dispatch_time - self.arrival_time

    def __repr__(self) -> str:  # concise: appears in simulator logs
        return (
            f"Request({self.tenant_id}/{self.api}#{self.seqno}"
            f" cost={self.cost:g} phase={self.phase})"
        )
