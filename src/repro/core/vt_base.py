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

From that declaration this module derives the linear scans, the
:class:`~repro.core.selection.SelectionIndex` layout (the distinct
staggers sorted ascending as its slots, a thread-to-slot map, and one
order heap) and the ``eligible`` and ``stagger`` fields of every traced
``select`` row, so the three can never disagree.

Every policy ranks a backlogged tenant by its head key ``(finish tag,
clamped head estimate, head seqno)``.  The key is cached on
:attr:`TenantState.head_key <repro.core.scheduler.TenantState.head_key>`
and computed at most once per head change by :meth:`_head_key`; the
linear scans, the dequeue charge and the selection index all read that
one cache.  :meth:`_touch` is the single invalidation point, called
exactly when the key moves: every site that changes a tenant's head
request, start tag or head estimate (enqueue of a new head, dequeue, a
nonzero refresh overage, a complete that charges a nonzero amount or
whose estimator :attr:`~repro.estimation.base.CostEstimator.learns`,
both cancel paths, an estimator swap) calls it, which clears the key
and re-files the tenant in the index.  Estimators change a queued
request's estimate only in ``observe`` for the same tenant, inside
``complete``, so no other invalidation is needed.  A completion under
known costs charges exactly ``0.0`` and the oracle learns nothing, so
there the tenant stays filed under its unchanged key.

Selection is adaptive: the scheduler tracks the live backlogged-tenant
count and switches between the linear scans and the O(log N) index with
hysteresis around the benchmarked linear/heap crossover
(:data:`~VirtualTimeScheduler.AUTO_INDEX_HIGH` /
:data:`~VirtualTimeScheduler.AUTO_INDEX_LOW`; DESIGN.md §15 records the
methodology) -- small backlogs keep the cache-friendly linear scan, large
backlogs get the index.  The two thresholds are also the one hook that
pins a path: ``HIGH = 1, LOW = 0`` on an instance builds the index at its
first enqueue and keeps it; ``HIGH = sys.maxsize`` never builds it.
Both paths are dispatch-for-dispatch identical (the differential tests
assert it, and ``tests/reference/fair_queue_oracle.py`` checks the
known-cost policies against an implementation that shares none of this
code).
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterable, Optional, Sequence

from ..errors import ConfigurationError, SchedulerError
from ..estimation.base import CostEstimator
from ..units import Cost, Rate, Scalar, SimTime, VirtualTime
from ..estimation.oracle import OracleEstimator
from .request import Request, RequestPhase
from .scheduler import MIN_COST, HeadKey, Scheduler, TenantState
from .selection import SelectionIndex
from .virtual_time import VirtualClock

__all__ = ["VirtualTimeScheduler"]

#: Slack applied to eligibility comparisons to absorb floating-point
#: round-off in virtual-time arithmetic.
_ELIGIBILITY_EPS = 1e-9

#: Sorts after every real head key: the start value of a minimum scan.
_NO_KEY: HeadKey = (float("inf"), float("inf"), 0)


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

    #: Adaptive-selection hysteresis band, in backlogged tenants: the
    #: index is built when the backlog reaches ``AUTO_INDEX_HIGH`` and
    #: torn down when it falls to ``AUTO_INDEX_LOW``.  The defaults sit
    #: above the measured linear/heap crossover of the slowest policies
    #: (``measure_adaptive_crossover`` in ``benchmarks/hotpath.py``;
    #: DESIGN.md §15), with a 2x band so a backlog oscillating around the
    #: crossover does not thrash index builds.  Set on an instance to pin
    #: a path: ``1``/``0`` keeps the index from the first enqueue on,
    #: ``sys.maxsize`` keeps the linear scans.
    AUTO_INDEX_HIGH: int = 32
    AUTO_INDEX_LOW: int = 16

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
        # for dequeue.  dict preserves insertion order, giving stable
        # iteration for deterministic tie-breaking.
        self._backlogged: dict[str, TenantState] = {}
        self._index: Optional[SelectionIndex] = None
        staggers = self._staggers(self._num_threads)
        self._thread_staggers = None if staggers is None else tuple(staggers)
        if staggers is not None and len(staggers) != self._num_threads:
            raise ConfigurationError(
                f"{type(self).__name__} declared {len(staggers)} staggers "
                f"for {self._num_threads} threads"
            )
        # The index layout: one slot per distinct stagger, ascending, and
        # each thread queries the slot of its own stagger.
        slots = sorted(set(staggers or ()))
        self._slot_staggers = tuple(slots)
        self._thread_slots = tuple(slots.index(s) for s in staggers or ())

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
    def indexed(self) -> bool:
        """True when dequeues currently run through the O(log N)
        selection index (this flips with the backlog)."""
        return self._index is not None

    @property
    def selection_index(self) -> Optional[SelectionIndex]:
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
        self._estimator = estimator
        self.reindex_backlogged()

    def reindex_backlogged(self) -> None:
        """Re-touch every backlogged tenant.

        Needed when head estimates change outside the ``observe()`` path
        -- e.g. a :class:`~repro.faults.FaultyEstimator` entering or
        leaving an outage/bias window shifts *all* estimates at once.
        """
        for state in self._backlogged.values():
            self._touch(state)

    def _touch(self, state: TenantState) -> None:
        """The single invalidation point, for when the tenant's key
        ``(finish tag, head estimate, head seqno)`` may have moved: its
        head request, start tag or head estimate changed.  Clears the
        cached head key and re-files the tenant in the index (or drops
        it there once its queue is empty).  Call it whenever the key can
        move and only then: a missed call leaves a stale key on both
        selection paths, a spare one costs the index a heap push."""
        state.head_key = None
        index = self._index
        if index is not None:
            if state.queue:
                index.touch(state)
            else:
                index.drop(state)

    def _activate_index(self) -> None:
        """Build a fresh selection index and seed it with the entire
        backlog.  O(N) per call: the adaptive rising edge amortizes it
        against the >= AUTO_INDEX_HIGH dequeues the backlog implies
        before the tear-down threshold can be reached."""
        index = SelectionIndex(
            self._head_key, order=self.order, staggers=self._slot_staggers
        )
        for state in self._backlogged.values():
            index.touch(state)
        self._index = index

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
            self._touch(state)
            if self._index is None and len(self._backlogged) >= self.AUTO_INDEX_HIGH:
                # Adaptive rising edge.  Checked only here: the backlog
                # can only grow when a tenant becomes backlogged, so
                # deeper enqueues never need to re-test the threshold.
                self._activate_index()
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
        if index is not None and len(self._backlogged) <= self.AUTO_INDEX_LOW:
            # Adaptive falling edge: below the crossover the linear scan
            # wins; discard the index (a later activation rebuilds from
            # scratch, so no coherence to maintain).
            self._index = index = None
        clock = self._clock
        vnow = clock._value if now == clock._last_wallclock else clock.advance(now)
        staggers = self._thread_staggers
        state: Optional[TenantState] = None
        if staggers is not None:
            if index is not None:
                state = index.min_eligible_finish(
                    self._thread_slots[thread_id], self._eligibility_threshold(vnow)
                )
            else:
                state = self._min_eligible_finish(staggers[thread_id], vnow)
        # An ungated policy picks in its tag order; a gated one does so
        # only when nothing is eligible (work conservation: requests are
        # queued, so pick something).
        fallback = state is None and staggers is not None
        if state is None:
            state = index.min_order() if index is not None else self._min_order()
        if state is None:
            raise SchedulerError(
                f"{type(self).__name__} violated work conservation with "
                f"{self.backlog} queued requests"
            )
        trace = self._trace
        if trace is not None:
            # E_now of Figure 7: the set the gated pick chose from.  The
            # index answers from its gate histogram, drained to this
            # same threshold by the query above.
            if staggers is None:
                stagger = 0.0
                eligible = len(self._backlogged)
            else:
                stagger = staggers[thread_id]
                if index is not None:
                    eligible = index.eligible_count(self._thread_slots[thread_id])
                else:
                    eligible = self._eligible_count(stagger, vnow)
            trace.select(
                now,
                vnow,
                state.tenant_id,
                thread=thread_id,
                policy=self.name,
                start_tag=state.start_tag,
                finish_tag=self._finish_tag(state),
                eligible=eligible,
                backlogged=len(self._backlogged),
                fallback=fallback,
                stagger=stagger,
                indexed=index is not None,
            )
        # Charge the estimate up front (Figure 7, lines 22-24): the same
        # cached key the selection ranked the tenant by.
        estimate = (state.head_key or self._head_key(state))[1]
        request = state.queue.popleft()
        if not state.queue:
            del self._backlogged[state.tenant_id]
        request.charged_cost = estimate
        request.credit = estimate
        state.start_tag += estimate / state.weight
        state.running += 1
        self._touch(state)
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
                self._touch(state)
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
            self._touch(state)
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
        self._touch(state)
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
        self._touch(state)
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

    def _head_key(self, state: TenantState) -> HeadKey:
        """The cached head key ``(F_f, l_head, seqno)`` with ``F_f = S_f +
        l_head / phi_f`` (Figure 7, line 21) and ``l_head`` the head
        estimate clamped to MIN_COST; computed on first use after
        :meth:`_touch`.  Hot loops read ``state.head_key or
        self._head_key(state)`` to skip the call on a hit."""
        key = state.head_key
        if key is None:
            head = state.queue[0]
            estimate = self._estimator.estimate(head)
            if estimate < MIN_COST:
                estimate = MIN_COST
            key = (state.start_tag + estimate / state.weight, estimate, head.seqno)
            state.head_key = key
        return key

    def _finish_tag(self, state: TenantState) -> VirtualTime:
        """Virtual finish time of the head request."""
        return self._head_key(state)[0]

    def _min_order(self) -> Optional[TenantState]:
        """Backlogged tenant first in the policy's :attr:`order`: the
        smallest ``(finish tag, head estimate, head seqno)``, or with
        ``order = "start"`` the smallest ``(start tag, head estimate,
        head seqno)``.

        Ties on the tag are broken toward the *smaller* estimated cost,
        then by the head request's global sequence number.  The size
        tie-break matches the paper's worked example (Figure 5c: at t=3
        the F=4 tie between a4/b4 and c1/d1 resolves to the small
        requests, so WFQ runs four A/B rounds before the C/D block) and
        is the choice that minimizes potential blocking when tags are
        equal.
        """
        head_key = self._head_key
        best: Optional[TenantState] = None
        best_key = _NO_KEY
        if self.order == "start":
            for state in self._backlogged.values():
                _, estimate, seqno = state.head_key or head_key(state)
                key = (state.start_tag, estimate, seqno)
                if key < best_key:
                    best, best_key = state, key
        else:
            for state in self._backlogged.values():
                key = state.head_key or head_key(state)
                if key < best_key:
                    best, best_key = state, key
        return best

    def _min_eligible_finish(
        self, stagger: Scalar, vnow: VirtualTime
    ) -> Optional[TenantState]:
        """Smallest-head-key tenant among those eligible under a stagger:
        ``S_f - stagger * l_head <= v(now)`` (with the float slack of
        :meth:`_eligibility_threshold`).  WF2Q's stagger is ``0.0``,
        2DFQ's ``i / n`` (Figure 7, line 20); ``None`` when nothing is
        eligible."""
        # _eligibility_threshold(vnow), inline: this scan runs on every
        # gated dequeue of the linear path.
        scale = vnow if vnow > 1.0 else (-vnow if vnow < -1.0 else 1.0)
        threshold = vnow + _ELIGIBILITY_EPS * scale
        head_key = self._head_key
        best: Optional[TenantState] = None
        best_key = _NO_KEY
        for state in self._backlogged.values():
            key = state.head_key or head_key(state)
            if state.start_tag - stagger * key[1] <= threshold and key < best_key:
                best, best_key = state, key
        return best

    def _eligible_count(self, stagger: Scalar, vnow: VirtualTime) -> int:
        """Size of the eligibility set :meth:`_min_eligible_finish`
        chooses from (tracing only)."""
        threshold = self._eligibility_threshold(vnow)
        head_key = self._head_key
        return sum(
            1
            for state in self._backlogged.values()
            if state.start_tag - stagger * (state.head_key or head_key(state))[1]
            <= threshold
        )

    @staticmethod
    def _eligibility_threshold(vnow: VirtualTime) -> VirtualTime:
        """Upper bound on (staggered) start tags counted as eligible at
        virtual time ``vnow``: the slack absorbs float round-off in
        virtual-time arithmetic.  Shared by the linear scans and the
        selection index so both paths gate on identical values
        (:meth:`_min_eligible_finish` inlines it).  The slack scale is
        ``max(1.0, abs(vnow))``, spelled without the two builtin calls;
        a NaN ``vnow`` scales by 1.0 either way."""
        scale = vnow if vnow > 1.0 else (-vnow if vnow < -1.0 else 1.0)
        return vnow + _ELIGIBILITY_EPS * scale
