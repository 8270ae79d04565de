"""Typed scheduler-decision trace events.

The paper's argument is about *why* a scheduler dispatches what it
dispatches -- virtual-time tags, eligibility windows, the 2DFQ stagger,
estimate error under 2DFQ^E -- yet service curves and dispatch logs only
record *outcomes*.  A :class:`TraceEvent` records the decision state at
the moment it was used, so a failing fairness or differential test can
be replayed tag by tag.

Event taxonomy (the ``kind`` field; see DESIGN.md §9):

``enqueue``
    A request joined its tenant's queue.  Carries the tenant's start tag
    after any Figure 7 fast-forward, the tenant queue depth, and the
    global backlog.
``select``
    A dequeue decision was made for one worker thread.  Carries the
    chosen tenant's start/finish tags, the eligibility-set size at the
    moment of choice, the thread's declared stagger offset, and whether
    the work-conserving fallback fired.
``dispatch``
    The chosen request was charged and handed to the thread.  Carries
    the estimate charged (``l_r``) and the tenant's start tag after the
    charge (Figure 7, lines 22-24).
``complete``
    Retroactive charging reconciled a finished request (paper §5).
    Carries charged vs actual cost and the resulting estimate error.
``vt_update``
    The virtual clock's slope or a tenant's start tag moved outside the
    dispatch path: tenant activation/deactivation (weight changes) and
    refresh charging.
``estimate``
    A cost estimator absorbed a completed request's measured cost
    (``observe``); carries the old and new per-(tenant, API) estimates.
``cancel``
    A queued or running request was removed before completion (client
    deadline, worker crash) and its charges refunded.  Carries whether
    the request was running and the backlog after removal.
``fault``
    The fault injector (:mod:`repro.faults`) perturbed the run: worker
    slowdown/stall window edges, crashes and restarts, deadline
    expiries, retries, abandonments.  ``data["fault"]`` names the kind.
``invariant``
    The runtime watchdog (:mod:`repro.validate`) observed a scheduler
    invariant violation.  Carries the invariant code and the event
    context at the moment of the check.
``audit``
    A fairness monitor (:mod:`repro.obs.audit`, folded at export)
    tripped or cleared a threshold: per-tenant service lag vs the GPS reference,
    the Fig-5/9 bursty-allocation pattern, or estimator-error drift
    under 2DFQ^E.  ``data["monitor"]`` names the monitor.
``route``
    A fleet router (:mod:`repro.fleet`) placed -- or refused -- a
    request: which server won, under which policy, over how many
    healthy candidates, and whether the fleet accepted it.  Rejections
    (no healthy server) carry ``accepted=False`` plus a ``reason``.

Every event also records the simulated wallclock ``t`` and the system
virtual time ``vt`` at emission, so virtual- and wall-time views line up.

Rows
----
The :class:`~repro.obs.tracer.Tracer` stores each event as one
fixed-shape *row* tuple ``(kind, t, vt, tenant, keys, values)``: the
four header fields, then the payload as a tuple of field names (a
module constant per typed emitter) and a parallel tuple of values.
Sinks receive rows; :class:`TraceEvent` is the object view of a row,
built only where a caller asks for one (:meth:`TraceEvent.from_row`,
:meth:`TraceEvent.as_row`, :func:`row_as_dict`).

Occupancy
---------
Which request held which worker thread, and when, is one fold over the
rows (:func:`occupancies`); the Chrome trace's request slices read it,
and any other per-request view (head-of-line blocking, say) should be
built on it too, so the views cannot disagree.
The per-kind counts a run's manifest reports are another fold,
:func:`event_counts`, computed at export.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "EVENT_KINDS",
    "Occupancy",
    "Row",
    "event_counts",
    "occupancies",
    "payload_reader",
    "row_as_dict",
    "row_field",
    "ENQUEUE",
    "SELECT",
    "DISPATCH",
    "COMPLETE",
    "VT_UPDATE",
    "ESTIMATE",
    "CANCEL",
    "FAULT",
    "INVARIANT",
    "AUDIT",
    "ROUTE",
    "TraceEvent",
]

ENQUEUE = "enqueue"
SELECT = "select"
DISPATCH = "dispatch"
COMPLETE = "complete"
VT_UPDATE = "vt_update"
ESTIMATE = "estimate"
CANCEL = "cancel"
FAULT = "fault"
INVARIANT = "invariant"
AUDIT = "audit"
ROUTE = "route"

#: The closed event taxonomy; exporters and tests validate against it.
EVENT_KINDS: Tuple[str, ...] = (
    ENQUEUE,
    SELECT,
    DISPATCH,
    COMPLETE,
    VT_UPDATE,
    ESTIMATE,
    CANCEL,
    FAULT,
    INVARIANT,
    AUDIT,
    ROUTE,
)


#: One stored event: ``(kind, t, vt, tenant, keys, values)``.
Row = Tuple[
    str, float, Optional[float], Optional[str], Tuple[str, ...], Tuple[Any, ...]
]


def row_as_dict(row: Row) -> Dict[str, Any]:
    """Flatten a row to the JSON-ready dict of :meth:`TraceEvent.as_dict`."""
    kind, t, vt, tenant, keys, values = row
    out: Dict[str, Any] = {"kind": kind, "t": t}
    if vt is not None:
        out["vt"] = vt
    if tenant is not None:
        out["tenant"] = tenant
    out.update(zip(keys, values))
    return out


#: Counter name of each counted kind.
_COUNTERS: Dict[str, str] = {
    DISPATCH: "scheduler.dispatches",
    COMPLETE: "scheduler.completions",
    CANCEL: "scheduler.cancellations",
    ESTIMATE: "estimator.refreshes",
    INVARIANT: "validate.violations",
    ROUTE: "fleet.route_decisions",
}


def event_counts(rows: Sequence[Row]) -> Dict[str, int]:
    """The per-kind event counts of a run under their counter names:
    rows per kind (:data:`_COUNTERS`), ``fault``/``audit`` rows per
    named fault/monitor (``faults.<fault>``, ``audit.<monitor>``) and
    the ``route`` rows not ``accepted`` (``fleet.rejections``).  A
    counter with no rows is left out."""
    kinds = Counter(map(operator.itemgetter(0), rows))
    counts = Counter({name: kinds[k] for k, name in _COUNTERS.items() if kinds[k]})
    if kinds[FAULT] or kinds[AUDIT] or kinds[ROUTE]:
        for row in rows:
            kind = row[0]
            if kind == FAULT:
                counts[f"faults.{row_field(row, 'fault')}"] += 1
            elif kind == AUDIT:
                counts[f"audit.{row_field(row, 'monitor')}"] += 1
            elif kind == ROUTE and not row_field(row, "accepted", True):
                counts["fleet.rejections"] += 1
    return dict(counts)


def row_field(row: Row, name: str, default: Any = None) -> Any:
    """Payload field ``name`` of a row, or ``default`` when absent."""
    try:
        return row[5][row[4].index(name)]
    except ValueError:
        return default


def payload_reader(
    keys: Tuple[str, ...], names: Sequence[str], default: Any = None
) -> Callable[[Tuple[Any, ...]], Tuple[Any, ...]]:
    """Reader of the payload fields ``names`` of rows whose payload keys
    are ``keys``: maps a row's values to the tuple of what
    :func:`row_field` returns for each name (``default`` when absent).

    Positions are resolved here, once; emitters share one ``keys`` tuple
    per row shape, so a fold over many rows builds one reader per
    shape instead of searching the keys on every row."""
    positions = [keys.index(name) if name in keys else None for name in names]
    if None in positions:
        return lambda values: tuple(
            default if p is None else values[p] for p in positions
        )
    if len(positions) == 1:
        (position,) = positions
        return lambda values: (values[position],)
    return operator.itemgetter(*positions)


@dataclass
class TraceEvent:
    """One scheduler-decision event.

    ``data`` holds the kind-specific payload (tags, eligibility counts,
    estimates); the four header fields are shared by every kind.
    """

    kind: str
    t: float
    vt: Optional[float]
    tenant: Optional[str]
    data: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_row(cls, row: Row) -> "TraceEvent":
        kind, t, vt, tenant, keys, values = row
        return cls(kind, t, vt, tenant, dict(zip(keys, values)))

    def as_row(self) -> Row:
        """The stored form of this event (a tracer row)."""
        data = self.data
        values = tuple(data.values())
        return (self.kind, self.t, self.vt, self.tenant, tuple(data), values)

    def as_dict(self) -> Dict[str, Any]:
        """Flatten to one JSON-ready dict (header fields first)."""
        return row_as_dict(self.as_row())


@dataclass(slots=True)
class Occupancy:
    """One request's tenure on one worker thread.

    ``row`` is the index of the ``dispatch`` row that opened it;
    ``server`` is the fleet server the request was routed to (``None``
    on a single server) and ``cost`` the request's enqueue-row cost.
    """

    row: int
    server: Optional[int]
    thread: int
    seqno: int
    tenant: Optional[str]
    api: Any
    cost: Any
    start: float
    end: float


#: Payload fields the occupancy fold reads, per kind it reads.
_OCCUPANCY_FIELDS: Dict[str, Tuple[str, ...]] = {
    DISPATCH: ("seqno", "thread", "api"),
    ENQUEUE: ("seqno", "cost"),
    ROUTE: ("accepted", "seqno", "server"),
    COMPLETE: ("seqno",),
    CANCEL: ("seqno",),
}


def occupancies(rows: Sequence[Row]) -> List[Occupancy]:
    """Thread occupancy of a run, in dispatch order, in one pass.

    A ``dispatch`` row opens an occupancy on ``(server, thread)``; the
    same seqno's next ``complete`` or ``cancel`` row closes it at that
    row's ``t``; one still open at the end closes at the last row's
    ``t``.  ``server`` comes from the seqno's latest accepted ``route``
    row.  Dispatch rows without a seqno or thread open nothing.
    """
    out: List[Occupancy] = []
    servers: Dict[Any, Any] = {}
    costs: Dict[Any, Any] = {}
    running: Dict[Any, Occupancy] = {}
    # kind -> (payload keys, reader) of the kind's latest row
    readers: Dict[str, Tuple[Tuple[str, ...], Callable[..., Tuple[Any, ...]]]] = {}
    for index, row in enumerate(rows):
        kind = row[0]
        names = _OCCUPANCY_FIELDS.get(kind)
        if names is None:
            continue
        cached = readers.get(kind)
        if cached is None or cached[0] is not row[4]:
            cached = readers[kind] = (row[4], payload_reader(row[4], names))
        read = cached[1]
        if kind == DISPATCH:
            seqno, thread, api = read(row[5])
            if seqno is None or thread is None:
                continue
            occupancy = Occupancy(
                index,
                servers.get(seqno),
                thread,
                seqno,
                row[3],
                api,
                costs.get(seqno),
                row[1],
                row[1],
            )
            out.append(occupancy)
            running[seqno] = occupancy
        elif kind == ENQUEUE:
            seqno, cost = read(row[5])
            costs[seqno] = cost
        elif kind == ROUTE:
            accepted, seqno, server = read(row[5])
            if accepted:
                servers[seqno] = server
        else:
            (seqno,) = read(row[5])
            closed = running.pop(seqno, None)
            if closed is not None:
                closed.end = row[1]
    if running:
        last = rows[-1][1]
        for occupancy in running.values():
            occupancy.end = last
    return out
