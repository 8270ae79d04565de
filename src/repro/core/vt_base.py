"""Virtual-time scheduler framework.

Every tag-based fair queue scheduler in this library -- WFQ, WF2Q, MSF2Q,
SFQ, 2DFQ and their estimated variants -- is a policy on top of
the same bookkeeping machinery, which this module implements once:

* per-tenant virtual start tags ``S_f`` (Figure 7 keeps tags per tenant
  rather than per request; for FIFO per-tenant queues the two
  formulations are equivalent, and the per-tenant form is what makes
  estimated costs and retroactive charging workable);
* a system :class:`~repro.core.virtual_time.VirtualClock` advancing at
  ``capacity / active_weight``;
* cost estimation at dispatch: the tenant is charged the *estimate*
  ``l_r`` up front (``S_f += l_r / phi_f``) and the request remembers the
  remaining credit ``c_f^j``;
* **refresh charging** (paper §5): interim usage measurements consume the
  credit first, then push ``S_f`` forward immediately;
* **retroactive charging** (paper §5): at completion the final increment
  is reconciled against the remaining credit -- overcharged tenants are
  refunded (``S_f`` moves backwards), undercharged tenants pay up -- so
  every tenant is eventually charged exactly what it consumed.

A policy declares two things and writes no selection code:

* its per-thread eligibility **staggers**, from
  :meth:`VirtualTimeScheduler._staggers`: ``None`` for an ungated
  policy, otherwise one offset per thread, and a tenant is eligible on
  thread ``i`` when ``S_f - staggers[i] * l_head <= v(now)`` (Figure 7,
  line 20);
* one tag **order**, :attr:`VirtualTimeScheduler.order`: ``"finish"``
  or ``"start"``.  An ungated policy picks the first tenant in that
  order; a gated one picks the smallest finish tag among the eligible
  tenants and falls back to the first tenant in that order when none is
  eligible (work conservation).

=========  =====================  ========
policy     staggers               order
=========  =====================  ========
WFQ        ``None``               finish
SFQ        ``None``               start
WF2Q       ``0`` on every thread  finish
MSF2Q      ``0`` on every thread  start
2DFQ       ``i / n``              finish
=========  =====================  ========

From that declaration this module derives the
:class:`~repro.core.selection.SelectionIndex` queries (the thread's own
stagger, over one list in the policy's order) and the ``eligible`` and
``stagger`` fields of every traced ``select`` row, so the two can never
disagree.  The index is the only selection path: it is built once, at
construction, and there is no linear scan on the dispatch path.

Every policy ranks a backlogged tenant by its head key ``(finish tag,
clamped head estimate, head seqno)``, cached on
:attr:`TenantState.head_key <repro.core.scheduler.TenantState.head_key>`
and filed in the index from one estimate per head change; the dequeue
charges the filed estimate.
:meth:`SelectionIndex.touch <repro.core.selection.SelectionIndex.touch>`
is the single invalidation point, called exactly when the key moves:
every site that changes a tenant's head request, start tag or head
estimate (enqueue of a new head, dequeue, a nonzero refresh overage, a
complete that charges a nonzero amount or whose estimator
:attr:`~repro.estimation.base.CostEstimator.learns`, both cancel paths,
an estimator swap) calls it, which recomputes the key and re-files the
tenant.  Estimators change a queued request's estimate only in
``observe`` for the same tenant, inside ``complete``, so no other
invalidation is needed.  A completion under known costs charges exactly
``0.0`` and the oracle learns nothing, so there the tenant stays filed
under its unchanged key.

``tests/reference/linear_selection.py`` recomputes every pick with the
naive linear scans, and ``tests/reference/fair_queue_oracle.py`` checks
the known-cost policies against an implementation that shares none of
this code.
"""

from __future__ import annotations

import math
from typing import Any, ClassVar, Iterable, Optional, Sequence

from ..errors import ConfigurationError, SchedulerError
from ..estimation.base import CostEstimator
from ..units import Cost, Rate, Scalar, SimTime, VirtualTime
from ..estimation.oracle import OracleEstimator
from .request import Request, RequestPhase
from .scheduler import Scheduler, TenantState
from .selection import SelectionIndex
from .virtual_time import VirtualClock

__all__ = ["VirtualTimeScheduler"]

#: Slack applied to eligibility comparisons to absorb floating-point
#: round-off in virtual-time arithmetic.
_ELIGIBILITY_EPS = 1e-9


class VirtualTimeScheduler(Scheduler):
    """Base class for tag-based fair schedulers over a thread pool.

    A policy subclass sets :attr:`order` and overrides :meth:`_staggers`
    (module docstring); everything else is shared.

    Parameters
    ----------
    num_threads, thread_rate:
        Shape of the worker pool; aggregate capacity is their product.
    estimator:
        Cost estimator consulted at dispatch time.  Defaults to the
        oracle (true costs), which yields the paper's "known request
        costs" algorithms; pass an
        :class:`~repro.estimation.ema.EMAEstimator` or
        :class:`~repro.estimation.pessimistic.PessimisticEstimator` for
        the ^E variants.
    """

    #: Tag order of the ungated pick and of the work-conserving
    #: fallback: ``"finish"`` ranks by ``(finish tag, head estimate,
    #: head seqno)``, ``"start"`` by ``(start tag, head estimate, head
    #: seqno)``.
    order: ClassVar[str] = "finish"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.order not in ("finish", "start"):
            raise ConfigurationError(
                f"{cls.__name__}.order must be 'finish' or 'start', got {cls.order!r}"
            )
        # Selection is derived from the declaration; a method under one
        # of these names would be silently ignored.
        ignored = sorted({"_select", "_fallback"} & vars(cls).keys())
        if ignored:
            raise ConfigurationError(
                f"{cls.__name__} defines {ignored}: declare _staggers() and "
                "order instead"
            )

    def __init__(
        self,
        num_threads: int,
        thread_rate: Rate = 1.0,
        estimator: Optional[CostEstimator] = None,
    ) -> None:
        super().__init__(num_threads, thread_rate)
        self._estimator = estimator if estimator is not None else OracleEstimator()
        self._clock = VirtualClock(self.capacity)
        # Tenants with at least one queued request, i.e. the candidates
        # for dequeue.  dict preserves insertion order, so re-touching
        # them all (reindex_backlogged) asks the estimator in a
        # deterministic order.
        self._backlogged: dict[str, TenantState] = {}
        staggers = self._staggers(self._num_threads)
        self._thread_staggers = None if staggers is None else tuple(staggers)
        if staggers is not None:
            if len(staggers) != self._num_threads:
                raise ConfigurationError(
                    f"{type(self).__name__} declared {len(staggers)} staggers "
                    f"for {self._num_threads} threads"
                )
            # SelectionIndex.count_eligible takes every entry whose
            # finish tag passes as eligible, which needs each stagger
            # finite and non-negative.
            bad = [s for s in staggers if not (math.isfinite(s) and s >= 0.0)]
            if bad:
                raise ConfigurationError(
                    f"{type(self).__name__} declared staggers {bad}: each "
                    "must be finite and non-negative"
                )
        self._index = SelectionIndex(
            self._estimator, order=self.order, gated=staggers is not None
        )

    def _staggers(self, num_threads: int) -> Optional[Sequence[Scalar]]:
        """The policy's eligibility staggers: ``None`` when it has no
        eligibility gate (the default), else one offset per thread;
        thread ``i`` admits a tenant once ``S_f - staggers[i] * l_head
        <= v(now)``.  Called once, at construction."""
        return None

    # -- introspection ---------------------------------------------------------

    @property
    def estimator(self) -> CostEstimator:
        return self._estimator

    @property
    def selection_index(self) -> SelectionIndex:
        return self._index

    @property
    def virtual_clock(self) -> VirtualClock:
        return self._clock

    def virtual_time(self, now: SimTime) -> VirtualTime:
        """Current system virtual time ``v(now)`` (advances the clock)."""
        return self._clock.advance(now)

    def backlogged_tenants(self) -> Iterable[TenantState]:
        return self._backlogged.values()

    def set_estimator(self, estimator: CostEstimator) -> None:
        """Swap the cost estimator at runtime (fault injection).

        Cached head keys were computed by the old estimator, so every
        backlogged tenant is re-touched."""
        self._estimator = self._index.estimator = estimator
        self.reindex_backlogged()

    def reindex_backlogged(self) -> None:
        """Re-touch every backlogged tenant.

        Needed when head estimates change outside the ``observe()`` path
        -- e.g. a :class:`~repro.faults.FaultyEstimator` entering or
        leaving an outage/bias window shifts *all* estimates at once.
        """
        touch = self._index.touch
        for state in self._backlogged.values():
            touch(state)

    # -- scheduler contract ------------------------------------------------------

    # enqueue, dequeue and complete run once per request, so they inline
    # the base class's bookkeeping helpers (_state_for's hit path,
    # _note_enqueued, _note_dispatched, Scheduler.complete) and skip the
    # virtual clock's advance() when the clock already stands at ``now``
    # (advance() is the identity there).  An earlier ``now`` still calls
    # advance(), which raises.

    def enqueue(self, request: Request, now: SimTime) -> None:
        state = self._tenants.get(request.tenant_id)
        if state is None:
            state = self._state_for(request)
        trace = self._trace
        clock = self._clock
        if not state.active:
            # Newly active tenant: join the virtual clock and fast-forward
            # the start tag (Figure 7, lines 2-5).  ``add_weight`` advances
            # the clock internally so the slope change is exact.
            self._clock.add_weight(state.weight, now)
            state.start_tag = max(state.start_tag, self._clock.value)
            state.active = True
            if trace is not None:
                trace.vt_update(
                    now,
                    self._clock.value,
                    state.tenant_id,
                    reason="tenant_active",
                    active_weight=self._clock.active_weight,
                    start_tag=state.start_tag,
                )
        elif now != clock._last_wallclock:
            clock.advance(now)
        state.queue.append(request)
        self._backlogged[state.tenant_id] = state
        request.phase = RequestPhase.QUEUED
        self.backlog += 1
        if len(state.queue) == 1:
            # A new head request (and possibly a fast-forwarded start
            # tag); deeper enqueues change neither the head nor the tag.
            self._index.touch(state)
        if trace is not None:
            trace.enqueue(
                now,
                self._clock.value,
                state.tenant_id,
                seqno=request.seqno,
                api=request.api,
                cost=request.cost,
                start_tag=state.start_tag,
                queue_depth=len(state.queue),
                backlog=self.backlog,
            )

    def dequeue(self, thread_id: int, now: SimTime) -> Optional[Request]:
        if not 0 <= thread_id < self._num_threads:
            self._check_thread(thread_id)
        if not self._backlogged:
            return None
        index = self._index
        clock = self._clock
        vnow = clock._value if now == clock._last_wallclock else clock.advance(now)
        staggers = self._thread_staggers
        entry = None
        if staggers is not None:
            # _eligibility_threshold(vnow), inline: this runs on every
            # gated dequeue.
            scale = vnow if vnow > 1.0 else (-vnow if vnow < -1.0 else 1.0)
            entry = index.min_eligible_finish(
                staggers[thread_id], vnow + _ELIGIBILITY_EPS * scale
            )
        # An ungated policy picks in its tag order; a gated one does so
        # only when nothing is eligible (work conservation: requests are
        # queued, so pick something).
        fallback = entry is None and staggers is not None
        if entry is None:
            entry = index.min_order()
        if entry is None:
            raise SchedulerError(
                f"{type(self).__name__} violated work conservation with "
                f"{self.backlog} queued requests"
            )
        state = entry[4]
        trace = self._trace
        if trace is not None:
            # E_now of Figure 7: the set the gated pick chose from,
            # counted on the index under the pick's own threshold.  A
            # fallback has just tested every entry and found none.
            if staggers is None:
                stagger = 0.0
                eligible = len(self._backlogged)
            else:
                stagger = staggers[thread_id]
                eligible = 0
                if not fallback:
                    eligible = index.count_eligible(
                        stagger, self._eligibility_threshold(vnow)
                    )
            trace.select(
                now,
                vnow,
                state.tenant_id,
                thread=thread_id,
                policy=self.name,
                start_tag=state.start_tag,
                # The finish tag touch() filed, from the entry's own
                # start tag and estimate.
                finish_tag=entry[3] + entry[1] / state.weight,
                eligible=eligible,
                backlogged=len(self._backlogged),
                fallback=fallback,
                stagger=stagger,
            )
        # Charge the estimate up front (Figure 7, lines 22-24): the one
        # the selection ranked the tenant by.
        estimate = entry[1]
        request = state.queue.popleft()
        if not state.queue:
            del self._backlogged[state.tenant_id]
        request.charged_cost = estimate
        request.credit = estimate
        state.start_tag += estimate / state.weight
        state.running += 1
        index.touch(state)
        request.phase = RequestPhase.RUNNING
        request.thread_id = thread_id
        request.dispatch_time = now
        self.backlog -= 1
        if trace is not None:
            trace.dispatch(
                now,
                vnow,
                state.tenant_id,
                seqno=request.seqno,
                api=request.api,
                thread=thread_id,
                estimate=estimate,
                start_tag_after=state.start_tag,
                backlog=self.backlog,
            )
        return request

    def refresh(self, request: Request, usage: Cost, now: SimTime) -> None:
        """Refresh charging (Figure 7, Refresh): consume pre-paid credit,
        then charge any excess to the tenant's clock immediately."""
        request.reported_usage += usage
        if usage < request.credit:
            request.credit -= usage
        else:
            state = self._tenants[request.tenant_id]
            charge = usage - request.credit
            state.start_tag += charge / state.weight
            request.credit = 0.0
            if charge != 0.0:
                self._index.touch(state)
            if self._trace is not None:
                self._trace.vt_update(
                    now,
                    self._clock.value,
                    state.tenant_id,
                    reason="refresh_charge",
                    seqno=request.seqno,
                    usage=usage,
                    start_tag=state.start_tag,
                )

    def complete(self, request: Request, usage: Cost, now: SimTime) -> None:
        """Retroactive charging (Figure 7, Complete): reconcile the final
        usage increment against the remaining credit.  If the request was
        overcharged the adjustment is negative -- a refund.

        The final increment is reconciled against the request's true
        cost rather than taken at face value: interim refresh
        measurements are wallclock-delta products whose float round-off
        would otherwise leave a permanent residual in ``start_tag``.
        After completion the tenant has been charged exactly
        ``cost / weight`` virtual time for the request (up to one
        rounding per charge increment), and the estimator observes the
        exact cost.
        """
        if request.phase == RequestPhase.CANCELLED:
            return  # stale completion racing a cancel: already refunded
        state = self._tenants.get(request.tenant_id)
        if state is None or state.running <= 0:
            raise SchedulerError(
                f"complete() for request of unknown/idle tenant {request.tenant_id}"
            )
        clock = self._clock
        if now != clock._last_wallclock:
            clock.advance(now)
        final = request.cost - request.reported_usage
        request.reported_usage = request.cost
        charge = final - request.credit
        state.start_tag += charge / state.weight
        request.credit = 0.0
        state.running -= 1
        estimator = self._estimator
        estimator.observe(request, request.reported_usage)
        # The start tag moves unless the charge is exactly zero (known
        # costs), and the head estimate only through a learning observe.
        if charge != 0.0 or estimator.learns:
            self._index.touch(state)
        trace = self._trace
        if trace is not None:
            trace.complete(
                now,
                self._clock.value,
                state.tenant_id,
                seqno=request.seqno,
                api=request.api,
                actual=request.cost,
                charged=request.charged_cost,
                start_tag_after=state.start_tag,
                running=state.running,
            )
        if not state.queue and state.running == 0 and state.active:
            # The tenant goes idle.  Figure 7 removes it from the active
            # set as soon as its queue drains; we additionally wait for
            # running requests to finish so that in-flight work keeps
            # receiving (and paying for) virtual-clock share.
            state.active = False
            self._clock.remove_weight(state.weight, now)
            if trace is not None:
                trace.vt_update(
                    now,
                    self._clock.value,
                    state.tenant_id,
                    reason="tenant_idle",
                    active_weight=self._clock.active_weight,
                )
        request.phase = RequestPhase.DONE
        self._completed += 1

    # -- cancellation ---------------------------------------------------------------

    def _cancel_queued(
        self, state: TenantState, request: Request, now: SimTime
    ) -> bool:
        """Remove a queued request.  Nothing has been charged for a
        queued request (charges happen at dispatch), so only the backlog
        structures need repair: the tenant queue, the backlogged set,
        the selection index, and -- when the tenant has no other work --
        its active-weight contribution to the virtual clock."""
        try:
            state.queue.remove(request)
        except ValueError:
            return False
        self._clock.advance(now)
        # The head may have changed, or the tenant left the backlog.
        self._index.touch(state)
        if not state.queue:
            self._backlogged.pop(state.tenant_id, None)
            if state.running == 0 and state.active:
                state.active = False
                self._clock.remove_weight(state.weight, now)
                if self._trace is not None:
                    self._trace.vt_update(
                        now,
                        self._clock.value,
                        state.tenant_id,
                        reason="tenant_idle",
                        active_weight=self._clock.active_weight,
                    )
        return True

    def _cancel_running(
        self, state: TenantState, request: Request, now: SimTime
    ) -> bool:
        """Refund the virtual-time charge of an in-flight request.

        The cumulative charge applied to ``start_tag`` for a running
        request is ``(reported_usage + credit) / weight``: the dispatch
        charged ``estimate / weight`` (leaving ``credit = estimate``),
        and each refresh either consumed credit (net charge unchanged)
        or pushed the tag by the overage (growing ``reported_usage``
        past the exhausted credit).  Subtracting it restores the tag to
        its pre-dispatch value, mirroring the ``complete()``
        reconciliation with a final usage of zero.
        """
        if state.running <= 0:
            return False
        self._clock.advance(now)
        state.start_tag -= (request.reported_usage + request.credit) / state.weight
        state.running -= 1
        self._index.touch(state)
        if self._trace is not None:
            self._trace.vt_update(
                now,
                self._clock.value,
                state.tenant_id,
                reason="cancel_refund",
                seqno=request.seqno,
                refund=request.reported_usage + request.credit,
                start_tag=state.start_tag,
            )
        if not state.queue and state.running == 0 and state.active:
            state.active = False
            self._clock.remove_weight(state.weight, now)
            if self._trace is not None:
                self._trace.vt_update(
                    now,
                    self._clock.value,
                    state.tenant_id,
                    reason="tenant_idle",
                    active_weight=self._clock.active_weight,
                )
        return True

    def _trace_virtual_time(self) -> Optional[VirtualTime]:
        return self._clock.value

    # -- selection primitives shared by the policies -----------------------------------

    @staticmethod
    def _eligibility_threshold(vnow: VirtualTime) -> VirtualTime:
        """Upper bound on (staggered) start tags counted as eligible at
        virtual time ``vnow``: the slack absorbs float round-off in
        virtual-time arithmetic.  Shared by the selection query (which
        :meth:`dequeue` inlines) and the eligibility count, so both gate
        on identical values.  The slack scale is
        ``max(1.0, abs(vnow))``, spelled without the two builtin calls;
        a NaN ``vnow`` scales by 1.0 either way."""
        scale = vnow if vnow > 1.0 else (-vnow if vnow < -1.0 else 1.0)
        return vnow + _ELIGIBILITY_EPS * scale
