"""Known-cost WFQ, WF2Q and 2DFQ, written directly from the paper.

The reference the scheduler core is checked against
(``tests/test_reference_oracle.py``).  It imports nothing from
``repro.core``, so a bookkeeping bug there -- a missed cache
invalidation, a wrong charge -- shows up as a different dispatch
sequence instead of being shared by both sides.  It is deliberately
naive: O(N) scans over every tenant, no caches, no selection index, no
refresh charging, and the true request cost as the estimate.

Definitions (paper §2, §4 and Figure 7):

* **GPS virtual time** ``v`` advances at ``C / Phi`` per second, where
  ``C`` is the pool's capacity and ``Phi`` the summed weight of the
  active tenants.  A tenant is active from its first queued request
  until its queue is empty *and* its last running request has finished
  (the core's documented reading of Figure 7, so in-flight work keeps
  paying for its share of the clock).
* **Start tags.**  Each tenant ``f`` keeps one start tag ``S_f``; a
  tenant that becomes active fast-forwards it to ``max(S_f, v)``.
* **Charge at dispatch.**  Dispatching a request of size ``l`` moves
  ``S_f`` to ``S_f + l / phi_f``.  With known costs the completion
  reconciles nothing.
* **Selection** ranks tenants by the head request's
  ``(finish tag S_f + l / phi_f, l, seqno)``: smallest first, ties to
  the smaller request, then to the earlier arrival.
  - WFQ: over every backlogged tenant.
  - WF2Q: over the eligible ones, ``S_f <= v``.
  - 2DFQ on thread ``i`` of ``n``: over ``S_f - (i / n) * l <= v``.
  When nothing is eligible, WF2Q and 2DFQ fall back to the WFQ choice
  (work conservation).
* **Slack.**  Eligibility compares against ``v + 1e-9 * max(1, |v|)``,
  the same float slack the core uses.

The virtual-time advance keeps the core's operation order,
``v += (t - t_last) * C / Phi``, so both sides round identically.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

POLICIES = ("wfq", "wf2q", "2dfq")

#: Float slack on the eligibility test.
ELIGIBILITY_EPS = 1e-9

#: ``(tenant, seqno, cost)`` of a dispatched request.
Dispatch = Tuple[str, int, float]


class _Tenant:
    def __init__(self, weight: float) -> None:
        self.weight = weight
        self.start = 0.0
        self.queue: Deque[Tuple[int, float]] = deque()  # (seqno, cost)
        self.running: Set[int] = set()  # seqnos
        self.active = False


class FairQueueOracle:
    """One of :data:`POLICIES` over ``num_threads`` threads of
    ``thread_rate`` cost units per second each."""

    def __init__(self, policy: str, num_threads: int, thread_rate: float = 1.0) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")
        self.policy = policy
        self.num_threads = num_threads
        self.capacity = num_threads * thread_rate
        self.v = 0.0
        self.last = 0.0
        self.active_weight = 0.0
        self.tenants: Dict[str, _Tenant] = {}

    # -- GPS virtual time ------------------------------------------------------

    def advance(self, now: float) -> float:
        if now > self.last:
            if self.active_weight > 0.0:
                self.v += (now - self.last) * self.capacity / self.active_weight
            self.last = now
        return self.v

    def _deactivate(self, tenant: _Tenant) -> None:
        tenant.active = False
        self.active_weight -= tenant.weight
        if self.active_weight < 1e-12:
            self.active_weight = 0.0

    # -- the scheduler contract ----------------------------------------------------

    def enqueue(self, tenant_id: str, weight: float, cost: float, seqno: int, now: float) -> None:
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            tenant = self.tenants[tenant_id] = _Tenant(weight)
        self.advance(now)
        if not tenant.active:
            tenant.active = True
            self.active_weight += tenant.weight
            tenant.start = max(tenant.start, self.v)
        tenant.queue.append((seqno, cost))

    def dequeue(self, thread: int, now: float) -> Optional[Dispatch]:
        v = self.advance(now)
        backlogged = [(tid, t) for tid, t in self.tenants.items() if t.queue]
        if not backlogged:
            return None

        def key(item: Tuple[str, _Tenant]) -> Tuple[float, float, int]:
            tenant = item[1]
            seqno, cost = tenant.queue[0]
            return (tenant.start + cost / tenant.weight, cost, seqno)

        stagger = {"wfq": None, "wf2q": 0.0, "2dfq": thread / self.num_threads}[
            self.policy
        ]
        candidates = backlogged
        if stagger is not None:
            threshold = v + ELIGIBILITY_EPS * max(1.0, abs(v))
            eligible = [
                (tid, t)
                for tid, t in backlogged
                if t.start - stagger * t.queue[0][1] <= threshold
            ]
            candidates = eligible or backlogged  # work-conserving fallback
        tenant_id, tenant = min(candidates, key=key)
        seqno, cost = tenant.queue.popleft()
        tenant.start += cost / tenant.weight
        tenant.running.add(seqno)
        return tenant_id, seqno, cost

    def complete(self, tenant_id: str, seqno: int, now: float) -> None:
        tenant = self.tenants[tenant_id]
        self.advance(now)
        tenant.running.remove(seqno)  # KeyError: never dispatched
        if not tenant.queue and not tenant.running:
            self._deactivate(tenant)
