"""Linear-scan tenant selection: the reference every dequeue is checked
against (``tests/test_differential_selection.py``).

The scheduler core picks through one sorted list of cached keys
(``repro.core.selection``).  This module picks the same way Figure 7
reads, by brute force: it walks every tenant with a queued request and
recomputes each key from scratch,

* ``l`` = ``estimator.estimate(head)``, raised to :data:`MIN_COST`;
* finish tag ``F = S_f + l / phi_f``;
* key ``(F, l, head seqno)``, or ``(S_f, l, head seqno)`` for a
  start-ordered policy.

It never reads the scheduler's cached head key (``head_key``), its
index entry (``sel_entry``) or its backlog dict, so a missed
invalidation or a mis-filed entry shows up as a different pick instead
of being shared by both sides.

The rule (Figure 7, lines 20-21):

* an ungated policy picks the smallest key;
* a gated one picks the smallest finish key among the tenants eligible
  on the thread, ``S_f - stagger * l <= v + 1e-9 * max(1, |v|)``, and
  falls back to the smallest key when none is eligible.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

#: Floor on every estimate (the core's ``MIN_COST``).
MIN_COST = 1e-9

#: Float slack on the eligibility test.
ELIGIBILITY_EPS = 1e-9


class Pick(NamedTuple):
    """The reference decision for one ``dequeue``."""

    tenant: str
    seqno: int
    #: Tenants the gated pick chose from (every backlogged tenant when
    #: the policy is ungated).
    eligible: int
    #: Whether the work-conserving fallback chose.
    fallback: bool


def fresh_key(scheduler, state, by_start=False):
    """``(F, l, seqno)`` of the tenant's head request, recomputed; with
    ``by_start`` the start tag replaces ``F``."""
    head = state.queue[0]
    estimate = scheduler.estimator.estimate(head)
    if estimate < MIN_COST:
        estimate = MIN_COST
    tag = state.start_tag if by_start else state.start_tag + estimate / state.weight
    return (tag, estimate, head.seqno)


def eligible_tenants(scheduler, stagger, vnow):
    """Backlogged tenants eligible under ``stagger`` at virtual time
    ``vnow``."""
    threshold = vnow + ELIGIBILITY_EPS * max(1.0, abs(vnow))
    found = []
    for state in scheduler.tenants().values():
        if state.queue:
            estimate = fresh_key(scheduler, state)[1]
            if state.start_tag - stagger * estimate <= threshold:
                found.append(state)
    return found


def smallest(scheduler, states, by_start=False):
    """The state with the smallest recomputed key, or ``None``."""
    best = None
    best_key = None
    for state in states:
        key = fresh_key(scheduler, state, by_start)
        if best_key is None or key < best_key:
            best, best_key = state, key
    return best


def pick(scheduler, thread_id, now) -> Optional[Pick]:
    """What ``scheduler.dequeue(thread_id, now)`` must return, computed
    before the call.  ``None`` when nothing is queued.

    Reads the policy's declaration (``order`` and ``_staggers``) and
    advances the virtual clock to ``now``, which ``dequeue`` does first
    anyway."""
    backlogged = [state for state in scheduler.tenants().values() if state.queue]
    if not backlogged:
        return None
    vnow = scheduler.virtual_time(now)
    by_start = scheduler.order == "start"
    staggers = scheduler._staggers(scheduler.num_threads)
    if staggers is None:
        state = smallest(scheduler, backlogged, by_start)
        return Pick(state.tenant_id, state.queue[0].seqno, len(backlogged), False)
    eligible = eligible_tenants(scheduler, staggers[thread_id], vnow)
    state = smallest(scheduler, eligible)
    fallback = state is None
    if fallback:
        state = smallest(scheduler, backlogged, by_start)
    return Pick(state.tenant_id, state.queue[0].seqno, len(eligible), fallback)
