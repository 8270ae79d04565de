"""Two-Dimensional Fair Queuing -- the paper's contribution (§4, §5).

2DFQ modifies WF2Q's eligibility criterion so that a request becomes
eligible *at different times on different worker threads*, breaking
WF2Q's "all or nothing" behaviour.  In a pool of ``n`` threads, request
``r`` is eligible on thread ``i`` (``0 <= i < n``) at virtual time

    S(r) - (i / n) * l(r)

so eligibility is uniformly staggered across threads in intervals of
``l(r) / n``.  Small requests become eligible on high-index threads
first and tend to be serviced there; low-index threads, seeing no
eligible small requests, end up servicing the large ones.  The practical
effect is a partitioning of requests across threads by size, which keeps
large requests from taking over the whole pool and blocking small ones
(the bursty schedules of Figures 5c/5d become the smooth schedule of
Figure 6b).

2DFQ retains MSF2Q's worst-case fairness bound (Theorem 1): the staggered
eligibility never delays a request past its GPS start time, so adding the
regulator does not change the ``N * Lmax`` bound.

**2DFQ^E** (§5) is the same scheduling logic driven by the
*pessimistic* cost estimator plus the retroactive- and refresh-charging
bookkeeping implemented in :class:`~repro.core.vt_base.VirtualTimeScheduler`.
Figure 7's eligibility test uses the per-tenant/API estimate
``L^f_max`` in place of the true size:

    S_f - (i / n) * L^f_max < v(now)

Unpredictable tenants therefore carry large estimates, are eligible
mostly on low-index threads, and stay away from predictable small
requests -- pessimism turns estimation error into spatial isolation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Union

from ..errors import SchedulerError
from ..estimation.base import CostEstimator
from ..estimation.pessimistic import PessimisticEstimator
from ..units import Cost, Rate, Scalar, VirtualTime
from .scheduler import TenantState
from .vt_base import VirtualTimeScheduler

__all__ = ["TwoDFQScheduler", "TwoDFQEScheduler"]


class TwoDFQScheduler(VirtualTimeScheduler):
    """2DFQ: WF2Q with per-thread staggered eligibility.

    With the default oracle estimator this is the known-cost 2DFQ of
    paper §4; with any other estimator the eligibility stagger uses the
    estimated cost, which is exactly Figure 7's formulation.
    """

    name = "2dfq"

    def _select(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        # Figure 7, line 20: E_now = { f in A : S_f - (i/n) L^f_max < v(now) }.
        # The stagger is expressed in virtual-time units; following the
        # paper's formulation the offset is the raw estimated cost (the
        # evaluation uses equal weights, for which this is exact).  The
        # scan reads the cached head keys, whose estimate is also what
        # ``dequeue`` charges.
        return self._min_eligible_finish(thread_id / self._num_threads, vnow)

    # Work-conserving fallback inherited: smallest finish tag overall.
    # On thread n-1 the stagger is largest, so small requests are usually
    # eligible there and the fallback fires rarely; on thread 0 the
    # eligibility set equals WF2Q's.

    def _index_spec(self) -> Optional[Dict[str, Any]]:
        # One eligibility slot per worker thread: thread ``i`` gates on
        # the staggered start tag ``S_f - (i/n) * l_head``.  Touch cost
        # is O(n log N); dequeue drops to O(log N) amortized per thread,
        # a win whenever backlogged tenants far outnumber threads.
        n = self._num_threads
        return {
            "finish": True,
            "staggers": tuple(i / n for i in range(n)),
        }

    def _select_indexed(self, thread_id: int, vnow: VirtualTime) -> Optional[TenantState]:
        index = self._index
        if index is None:  # dequeue routes here only in indexed mode
            raise SchedulerError("indexed selection invoked without an index")
        return index.min_eligible_finish(
            thread_id, self._eligibility_threshold(vnow)
        )

    # -- tracing hooks ---------------------------------------------------------

    def _trace_stagger(self, thread_id: int) -> float:
        return thread_id / self._num_threads

    def _trace_eligible_count(self, thread_id: int, vnow: VirtualTime) -> int:
        # Tracing only: the staggered eligibility set of Figure 7 line 20
        # for this specific thread, |{ f : S_f - (i/n) L^f_max <= v }|.
        # The index answers from its gate histogram (slot i = thread i).
        if self._index is not None:
            return self._index.eligible_count(thread_id)
        return self._eligible_count(thread_id / self._num_threads, vnow)


class TwoDFQEScheduler(TwoDFQScheduler):
    """2DFQ^E: 2DFQ with pessimistic cost estimation (Figure 7).

    Convenience subclass wiring in the
    :class:`~repro.estimation.pessimistic.PessimisticEstimator` with the
    paper's default ``alpha = 0.99``.  Retroactive and refresh charging
    come from the shared virtual-time framework.
    """

    name = "2dfq-e"

    def __init__(
        self,
        num_threads: int,
        thread_rate: Rate = 1.0,
        estimator: Optional[CostEstimator] = None,
        alpha: Scalar = 0.99,
        initial_estimate: Cost = 1.0,
        indexed: Union[bool, str] = "auto",
    ) -> None:
        if estimator is None:
            estimator = PessimisticEstimator(
                alpha=alpha, initial_estimate=initial_estimate
            )
        super().__init__(num_threads, thread_rate, estimator, indexed=indexed)
