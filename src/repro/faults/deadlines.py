"""Client deadlines: expiry, backoff retry and abandonment.

One :class:`DeadlineTimer` serves both fault injectors (DESIGN.md §11).
It acts on a *target* -- a :class:`~repro.simulator.server.ThreadPoolServer`
or a :class:`~repro.fleet.fleet.Fleet` -- only through the target's
``sim``, ``abort``, ``submit``, ``abandon`` and ``_trace``.  The timer
arms on the target's admission hook; at expiry the target aborts the
request (a stale abort ends the story), and the request is either
re-submitted after :func:`~repro.faults.plan.retry_delay` or, out of
retries, abandoned back to its source.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..core.request import Request, RequestPhase
from ..simulator.rng import make_rng
from .plan import DeadlinePolicy, FaultPlan, retry_delay

__all__ = ["DeadlineTimer", "trace_fault"]


def trace_fault(target: Any, fault: str, tenant: Optional[str] = None, **fields: Any) -> None:
    """Emit one ``fault`` event on the target's tracer, if it has one."""
    trace = target._trace
    if trace is not None:
        trace.fault(target.sim.now, fault, tenant=tenant, **fields)


class DeadlineTimer:
    """Runs a plan's deadline policies against one target.

    ``counts`` is the injector's summary dict; the timer bumps its
    ``deadline_expiries``, ``retries`` and ``abandoned`` entries.
    ``stream`` names the RNG stream of the backoff jitter.
    """

    def __init__(
        self,
        target: Any,
        plan: FaultPlan,
        counts: Dict[str, int],
        stream: Tuple[str, ...],
    ) -> None:
        self.target = target
        self.plan = plan
        self.counts = counts
        self._rng = make_rng(plan.seed, *stream)
        self._attempts: Dict[int, int] = {}  # seqno -> retries so far

    def arm(self, hook: Callable[[Callable[[Request], None]], None]) -> None:
        """Register on the target's admission hook when the plan has
        deadlines."""
        if self.plan.deadlines:
            hook(self._watch)

    def _watch(self, request: Request) -> None:
        policy = self.plan.policy_for(request.tenant_id)
        if policy is None:
            return
        self.target.sim.after(policy.deadline, self._expire, request, policy)

    def _expire(self, request: Request, policy: DeadlinePolicy) -> None:
        phase = request.phase
        if not self.target.abort(request):
            return  # completed (or already torn down) before the deadline
        self.counts["deadline_expiries"] += 1
        trace_fault(
            self.target,
            "deadline_expired",
            tenant=request.tenant_id,
            seqno=request.seqno,
            was_running=phase == RequestPhase.RUNNING,
        )
        attempts = self._attempts.get(request.seqno, 0)
        if attempts < policy.max_retries:
            self._attempts[request.seqno] = attempts + 1
            delay = retry_delay(
                policy.backoff,
                policy.growth,
                policy.jitter,
                attempts,
                float(self._rng.uniform(0.0, 1.0)),
            )
            self.target.sim.after(delay, self._retry, request)
        else:
            self.counts["abandoned"] += 1
            # The client gave up; closed-loop tenants move on to their
            # next request rather than wedging forever.
            self.target.abandon(request)

    def _retry(self, request: Request) -> None:
        if request.phase != RequestPhase.CANCELLED:
            return  # re-submitted or torn down through another path
        self.counts["retries"] += 1
        trace_fault(
            self.target,
            "retry",
            tenant=request.tenant_id,
            seqno=request.seqno,
            attempt=self._attempts.get(request.seqno, 0),
        )
        # A retry is a fresh client submission: arrival time moves to
        # now and the admission hook arms a new timer for it.
        self.target.submit(request)
