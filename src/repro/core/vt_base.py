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

Subclasses implement a single hook, :meth:`VirtualTimeScheduler._select`,
choosing a backlogged tenant given the thread index and current virtual
time, plus optionally :meth:`_fallback` for the work-conserving choice
when no tenant is *eligible* under the policy.

Every policy ranks a backlogged tenant by its head key ``(finish tag,
clamped head estimate, head seqno)``.  The key is cached on
:attr:`TenantState.head_key <repro.core.scheduler.TenantState.head_key>`
and computed at most once per head change by :meth:`_head_key`; the
linear scans, the dequeue charge and the selection index all read that
one cache.  :meth:`_touch` is the single invalidation point: every site
that changes a tenant's head request, start tag or head estimate
(enqueue of a new head, dequeue, a refresh overage, complete, both
cancel paths, an estimator swap) calls it, which clears the key and
tells the index.  Estimators change a queued request's estimate only in
``observe`` for the same tenant, inside ``complete``, so no other
invalidation is needed.

Selection runs in one of three interchangeable modes:

* **linear scan** (``indexed=False``): `_select` / `_fallback` walk the
  backlogged set, exactly as the policy definitions read;
* **indexed** (``indexed=True``): policies that declare an
  :meth:`_index_spec` get a :class:`~repro.core.selection.SelectionIndex`
  -- heaps with lazy invalidation -- and `dequeue` routes through
  :meth:`_select_indexed` / :meth:`_fallback_indexed` instead, dropping
  the per-dequeue cost from O(N) to O(log N) amortized;
* **adaptive** (``indexed="auto"``, the default): the scheduler tracks
  the live backlogged-tenant count and switches between the two modes
  with hysteresis around the benchmarked linear/heap crossover
  (:data:`AUTO_INDEX_HIGH` / :data:`AUTO_INDEX_LOW`; DESIGN.md §15
  records the methodology) -- small backlogs keep the cache-friendly
  linear scan, large backlogs get the index.

All modes are dispatch-for-dispatch identical (the differential tests
assert it, and ``tests/reference/fair_queue_oracle.py`` checks the
known-cost policies against an implementation that shares none of this
code); external subclasses that only override `_select` simply keep the
linear path, whatever mode was requested.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    ClassVar,
    Dict,
    Iterable,
    Optional,
    Union,
)

if TYPE_CHECKING:
    from ..obs.registry import Timer

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
    indexed:
        Selection mode: ``"auto"`` (the default) switches between the
        linear scan and the heap index from the live backlog size with
        hysteresis; ``True`` forces the index whenever the policy
        provides one; ``False`` forces the reference linear scans.  The
        differential tests run all three modes side by side.
    """

    #: Adaptive-mode hysteresis band, in backlogged tenants: the index
    #: is built when the backlog reaches ``AUTO_INDEX_HIGH`` and torn
    #: down when it falls to ``AUTO_INDEX_LOW``.  The defaults sit above
    #: the measured linear/heap crossover of the slowest policies
    #: (``measure_adaptive_crossover`` in ``benchmarks/hotpath.py``;
    #: DESIGN.md §15), with a 2x band so a backlog oscillating around the
    #: crossover does not thrash index builds.  Class attributes:
    #: subclasses or callers may retune per deployment.
    AUTO_INDEX_HIGH: ClassVar[int] = 32
    AUTO_INDEX_LOW: ClassVar[int] = 16

    def __init__(
        self,
        num_threads: int,
        thread_rate: Rate = 1.0,
        estimator: Optional[CostEstimator] = None,
        indexed: Union[bool, str] = "auto",
    ) -> None:
        super().__init__(num_threads, thread_rate)
        self._estimator = estimator if estimator is not None else OracleEstimator()
        self._clock = VirtualClock(self.capacity)
        # Tenants with at least one queued request, i.e. the candidates
        # for dequeue.  dict preserves insertion order, giving stable
        # iteration for deterministic tie-breaking.
        self._backlogged: dict[str, TenantState] = {}
        self._index: Optional[SelectionIndex] = None
        if indexed is True:
            self._auto = False
            spec = self._index_spec()
            if spec is not None:
                self._index = SelectionIndex(self._head_key, **spec)
        elif indexed is False:
            self._auto = False
        elif indexed == "auto":
            # Auto on a policy without an index spec degenerates to the
            # linear scans: _activate_index() finds no spec and disarms.
            self._auto = self._index_spec() is not None
        else:
            raise ConfigurationError(
                f"indexed must be True, False, or 'auto', got {indexed!r}"
            )

    # -- introspection ---------------------------------------------------------

    @property
    def estimator(self) -> CostEstimator:
        return self._estimator

    @property
    def indexed(self) -> bool:
        """True when dequeues currently run through the O(log N)
        selection index (in adaptive mode this flips with the backlog)."""
        return self._index is not None

    @property
    def selection_mode(self) -> str:
        """The configured selection mode: ``"auto"``, ``"indexed"``, or
        ``"linear"`` (``indexed`` / ``linear`` also cover auto-less
        policies without an index spec)."""
        if self._auto:
            return "auto"
        return "indexed" if self._index is not None else "linear"

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
        """The single invalidation point: the tenant's head request,
        start tag or head estimate may have changed.  Clears the cached
        head key and re-files the tenant in the index (or drops it there
        once its queue is empty)."""
        state.head_key = None
        index = self._index
        if index is not None:
            if state.queue:
                index.touch(state)
            else:
                index.drop(state)

    def _activate_index(self) -> None:
        """Build a fresh selection index and seed it with the entire
        backlog.  O(N) per call: adaptive mode's rising edge amortizes
        it against the >= AUTO_INDEX_HIGH dequeues the backlog implies
        before the tear-down threshold can be reached."""
        spec = self._index_spec()
        if spec is None:  # pragma: no cover - auto is disarmed in __init__
            self._auto = False
            return
        index = SelectionIndex(self._head_key, **spec)
        for state in self._backlogged.values():
            index.touch(state)
        self._index = index

    # -- scheduler contract ------------------------------------------------------

    def enqueue(self, request: Request, now: SimTime) -> None:
        state = self._state_for(request)
        trace = self._trace
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
        else:
            self._clock.advance(now)
        state.queue.append(request)
        self._backlogged[state.tenant_id] = state
        self._note_enqueued(request)
        if len(state.queue) == 1:
            # A new head request (and possibly a fast-forwarded start
            # tag); deeper enqueues change neither the head nor the tag.
            self._touch(state)
            if (
                self._index is None
                and self._auto
                and len(self._backlogged) >= self.AUTO_INDEX_HIGH
            ):
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
                backlog=self._size,
            )

    def dequeue(self, thread_id: int, now: SimTime) -> Optional[Request]:
        self._check_thread(thread_id)
        if not self._backlogged:
            return None
        index = self._index
        if (
            index is not None
            and self._auto
            and len(self._backlogged) <= self.AUTO_INDEX_LOW
        ):
            # Adaptive mode, falling edge: below the crossover the
            # linear scan wins; discard the index (a later activation
            # rebuilds from scratch, so no coherence to maintain).
            self._index = index = None
        # Per-phase profiling timers (ISSUE spans tentpole): only fetched
        # while a tracer is attached, so the disabled hot path stays one
        # ``is not None`` check per phase.  The clock behind the timers
        # is injectable -- the runner attaches the sim clock for traced
        # runs, the hot-path microbenchmarks keep the host clock.
        trace = self._trace
        phase_timer: Optional["Timer"] = None
        if trace is not None:
            phase_timer = trace.registry.timer("scheduler.phase.vt_update").start()
        vnow = self._clock.advance(now)
        if phase_timer is not None and trace is not None:
            phase_timer.stop()
            phase_timer = trace.registry.timer("scheduler.phase.select").start()
        if index is not None:
            state = self._select_indexed(thread_id, vnow)
            if state is None:
                # Work conservation: requests are queued, so pick something.
                fallback = True
                state = self._fallback_indexed(thread_id, vnow)
            else:
                fallback = False
        else:
            state = self._select(thread_id, vnow)
            if state is None:
                fallback = True
                state = self._fallback(thread_id, vnow)
            else:
                fallback = False
        if phase_timer is not None:
            phase_timer.stop()
        if state is None:
            raise SchedulerError(
                f"{type(self).__name__} violated work conservation with "
                f"{self._size} queued requests"
            )
        if trace is not None:
            trace.select(
                now,
                vnow,
                state.tenant_id,
                thread=thread_id,
                policy=self.name,
                start_tag=state.start_tag,
                finish_tag=self._finish_tag(state),
                eligible=self._trace_eligible_count(thread_id, vnow),
                backlogged=len(self._backlogged),
                fallback=fallback,
                stagger=self._trace_stagger(thread_id),
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
        if index is not None and trace is not None:
            phase_timer = trace.registry.timer("scheduler.phase.index").start()
            self._touch(state)
            phase_timer.stop()
        else:
            self._touch(state)
        self._note_dispatched(request, thread_id, now)
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
                backlog=self._size,
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
            state.start_tag += (usage - request.credit) / state.weight
            request.credit = 0.0
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
        self._clock.advance(now)
        final = request.cost - request.reported_usage
        request.reported_usage = request.cost
        state.start_tag += (final - request.credit) / state.weight
        request.credit = 0.0
        state.running -= 1
        self._estimator.observe(request, request.reported_usage)
        # Both the start tag and (via observe) the head estimate moved.
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
        super().complete(request, 0.0, now)

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

    # -- policy hooks ---------------------------------------------------------------

    def _select(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        """Choose a backlogged tenant for ``thread_id`` at virtual time
        ``vnow``; return ``None`` if no tenant is eligible under the
        policy (the framework then calls :meth:`_fallback`).

        This is the linear-scan hook; it stays O(N) and readable, and
        reads the cached head keys.  Policies that also provide
        :meth:`_index_spec` and :meth:`_select_indexed` get the
        O(log N) path in ``dequeue``.
        """
        raise NotImplementedError

    def _fallback(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        """Work-conserving choice when nothing is eligible.  Default:
        smallest finish tag, i.e. the WFQ decision."""
        return self._min_finish(self._backlogged.values())

    def _index_spec(self) -> Optional[Dict[str, Any]]:
        """Describe the ordered structures this policy's indexed
        selection needs, as keyword arguments for
        :class:`~repro.core.selection.SelectionIndex` (``finish``,
        ``start``, ``staggers``).  Return ``None`` (the default) to run
        on the linear scans only -- which is what external subclasses
        that merely override :meth:`_select` get, unchanged.
        """
        return None

    def _select_indexed(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        """Indexed counterpart of :meth:`_select`; must make the exact
        same decision.  Only called when :meth:`_index_spec` returned a
        spec and ``indexed=True``."""
        raise NotImplementedError

    def _fallback_indexed(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        """Indexed counterpart of :meth:`_fallback` (default: smallest
        finish tag from the index)."""
        index = self._index
        if index is None:  # only reachable if dequeue's routing is broken
            raise SchedulerError("indexed fallback invoked without an index")
        return index.min_finish()

    # -- tracing hooks (only called while a tracer is attached) -----------------

    def _trace_eligible_count(self, thread_id: int, vnow: VirtualTime) -> int:
        """Size of this policy's eligibility set at ``vnow`` -- the
        ``E_now`` of Figure 7, recorded in ``select`` trace events.

        The default (no eligibility gate: WFQ, SFQ) is the whole
        backlogged set; gated policies override, scanning the backlog on
        the linear path and asking the index
        (:meth:`~repro.core.selection.SelectionIndex.eligible_count`)
        when it is active.  Called right after the selection query, so
        the index's gates are drained to the same threshold.
        """
        return len(self._backlogged)

    def _trace_stagger(self, thread_id: int) -> float:
        """Per-thread eligibility stagger offset recorded in ``select``
        trace events (2DFQ: ``thread_id / n``; everything else: 0)."""
        return 0.0

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

    def _head_estimate(self, state: TenantState) -> Cost:
        """Estimated cost of the tenant's head request."""
        return self._head_key(state)[1]

    def _finish_tag(self, state: TenantState) -> VirtualTime:
        """Virtual finish time of the head request."""
        return self._head_key(state)[0]

    def _min_finish(
        self, candidates: Iterable[TenantState]
    ) -> Optional[TenantState]:
        """Tenant with the smallest head finish tag.

        Ties are broken toward the *smaller* estimated cost, then by the
        head request's global sequence number.  The size tie-break
        matches the paper's worked example (Figure 5c: at t=3 the F=4
        tie between a4/b4 and c1/d1 resolves to the small requests, so
        WFQ runs four A/B rounds before the C/D block) and is the choice
        that minimizes potential blocking when tags are equal.
        """
        head_key = self._head_key
        best: Optional[TenantState] = None
        best_key = _NO_KEY
        for state in candidates:
            key = state.head_key or head_key(state)
            if key < best_key:
                best, best_key = state, key
        return best

    def _min_start(self, candidates: Iterable[TenantState]) -> Optional[TenantState]:
        """Tenant with the smallest start tag (SFQ decision); same
        size-then-seqno tie-breaking as :meth:`_min_finish`."""
        head_key = self._head_key
        best: Optional[TenantState] = None
        best_key = _NO_KEY
        for state in candidates:
            _, estimate, seqno = state.head_key or head_key(state)
            key = (state.start_tag, estimate, seqno)
            if key < best_key:
                best, best_key = state, key
        return best

    def _min_eligible_finish(
        self, stagger: Scalar, vnow: VirtualTime
    ) -> Optional[TenantState]:
        """Smallest-head-key tenant among those eligible under a stagger:
        ``S_f - stagger * l_head <= v(now)`` (with the float slack of
        :meth:`_eligibility_threshold`).  WF2Q passes ``0.0``, 2DFQ
        ``i / n`` (Figure 7, line 20); ``None`` when nothing is
        eligible."""
        threshold = self._eligibility_threshold(vnow)
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
        selection index so both paths gate on identical values."""
        return vnow + _ELIGIBILITY_EPS * max(1.0, abs(vnow))

    @classmethod
    def _eligible(cls, start_tag: VirtualTime, vnow: VirtualTime) -> bool:
        """Eligibility test with float slack: ``S_f <= v(now)``."""
        return start_tag <= cls._eligibility_threshold(vnow)
