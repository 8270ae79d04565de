"""Scheduler-decision tracer.

One :class:`Tracer` keeps the record of one run: the typed events as
rows (see :mod:`repro.obs.events` for the taxonomy) and the metrics
collector's per-tenant service samples.  The exporters derive counts,
flight dumps and the fairness audit from that record.  Its
:class:`~repro.obs.registry.MetricsRegistry` holds the instruments that
are not events.

Overhead contract
-----------------
Tracing must cost (close to) nothing when off.  Instrumented components
hold a ``_trace`` attribute that is either ``None`` or a tracer, and
every instrumentation site is guarded by a single attribute check::

    trace = self._trace
    if trace is not None:
        trace.select(...)

``None`` is the only off switch, so the untraced mode is exactly one
``is not None`` test per instrumented operation.  The hot-path
microbenchmarks (``benchmarks/hotpath.py``) measure traced and audited
dequeue throughput against it.

Traced, emission is one row tuple and a list append (DESIGN.md §9): a
typed emitter builds no dict and no :class:`TraceEvent`, and encoding
waits for export.  ``max_events`` bounds memory for long runs
(overflow is counted, not silently ignored).
"""

from __future__ import annotations

import sys
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .events import (
    CANCEL,
    COMPLETE,
    DISPATCH,
    ENQUEUE,
    ESTIMATE,
    FAULT,
    INVARIANT,
    ROUTE,
    SELECT,
    VT_UPDATE,
    Row,
    TraceEvent,
)
from .registry import MetricsRegistry

__all__ = ["Sample", "Tracer"]

#: One collector sample: ``(rows stored before it, t, actual, gps)``,
#: the last two mapping each tenant to its cumulative actual and GPS
#: service at ``t``.
Sample = Tuple[int, float, Dict[str, float], Dict[str, float]]

# Payload field names of the typed emitters, one shared tuple each.
_ENQUEUE_KEYS = ("seqno", "api", "cost", "start_tag", "queue_depth", "backlog")
_SELECT_KEYS = (
    "thread",
    "policy",
    "start_tag",
    "finish_tag",
    "eligible",
    "backlogged",
    "fallback",
    "stagger",
)
_DISPATCH_KEYS = ("seqno", "api", "thread", "estimate", "start_tag_after", "backlog")
_COMPLETE_KEYS = (
    "seqno",
    "api",
    "actual",
    "charged",
    "error",
    "start_tag_after",
    "running",
)
_CANCEL_KEYS = ("seqno", "api", "was_running", "backlog")
_ESTIMATE_KEYS = ("api", "old", "new", "actual")
_ROUTE_KEYS = ("seqno", "server", "policy", "healthy", "backlog", "accepted")
_ROUTE_REASON_KEYS = _ROUTE_KEYS + ("reason",)


class _EventView(Sequence[TraceEvent]):
    """Read-only :class:`TraceEvent` view of a tracer's rows.

    ``len`` is O(1); each read builds fresh event objects from the rows,
    so the rows stay the only store (mutating an event read from the
    view does not change the trace)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: List[Row]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return list(map(TraceEvent.from_row, self._rows[index]))
        return TraceEvent.from_row(self._rows[index])

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(TraceEvent.from_row, self._rows)

    def __repr__(self) -> str:
        return f"<{len(self)} trace events>"


def check_max_events(max_events: Optional[int]) -> None:
    """Reject a negative event cap (``None`` keeps everything)."""
    if max_events is not None and max_events < 0:
        raise ConfigurationError(f"max_events must be >= 0, got {max_events}")


class Tracer:
    """Collects the decision events of one traced run.

    Parameters
    ----------
    name:
        Label for the run (used by exporters and manifests).
    max_events:
        Hard cap on retained events; further emissions only increment
        ``dropped_events``.  ``None`` (default) keeps everything; a
        negative cap raises :class:`~repro.errors.ConfigurationError`.

    Events are retained in :attr:`rows` (see :mod:`repro.obs.events`);
    :attr:`events` is a :class:`TraceEvent` view of the same store.
    :attr:`samples` holds the collector's samples.  What is derived at
    export (counts, flight dumps, the audit) covers the retained rows
    only.
    """

    __slots__ = (
        "name",
        "rows",
        "events",
        "registry",
        "samples",
        "dropped_events",
        "_limit",
    )

    def __init__(self, name: str = "trace", max_events: Optional[int] = None) -> None:
        check_max_events(max_events)
        self.name = name
        #: The event store: one row per retained event, in emission order.
        self.rows: List[Row] = []
        #: The retained events as :class:`TraceEvent` objects: a
        #: read-only view of :attr:`rows`.
        self.events: Sequence[TraceEvent] = _EventView(self.rows)
        #: The collector's samples, in time order (:data:`Sample`).
        self.samples: List[Sample] = []
        self.registry = MetricsRegistry()
        self.dropped_events = 0
        self._limit = sys.maxsize if max_events is None else max_events

    # -- emission --------------------------------------------------------------

    def _record(self, row: Row) -> None:
        rows = self.rows
        if len(rows) < self._limit:
            rows.append(row)
        else:
            self.dropped_events += 1

    def sample(
        self, t: float, actual: Dict[str, float], gps: Dict[str, float]
    ) -> None:
        """Keep one collector sample (not subject to ``max_events``).
        The dicts are kept, not copied: the collector builds fresh ones
        for each sample and never changes them."""
        self.samples.append((len(self.rows), t, actual, gps))

    def emit(self, event: TraceEvent) -> None:
        """Store one event object (respects ``max_events``)."""
        self._record(event.as_row())

    # Typed emitters: thin wrappers that fix the ``kind`` and name the
    # payload fields, so instrumentation sites read like the taxonomy.

    def enqueue(
        self,
        t: float,
        vt: float,
        tenant: str,
        *,
        seqno: int,
        api: str,
        cost: float,
        start_tag: float,
        queue_depth: int,
        backlog: int,
    ) -> None:
        self._record(
            (
                ENQUEUE,
                t,
                vt,
                tenant,
                _ENQUEUE_KEYS,
                (seqno, api, cost, start_tag, queue_depth, backlog),
            )
        )

    def select(
        self,
        t: float,
        vt: float,
        tenant: str,
        *,
        thread: int,
        policy: str,
        start_tag: float,
        finish_tag: float,
        eligible: int,
        backlogged: int,
        fallback: bool,
        stagger: float,
    ) -> None:
        self._record(
            (
                SELECT,
                t,
                vt,
                tenant,
                _SELECT_KEYS,
                (
                    thread,
                    policy,
                    start_tag,
                    finish_tag,
                    eligible,
                    backlogged,
                    fallback,
                    stagger,
                ),
            )
        )

    def dispatch(
        self,
        t: float,
        vt: float,
        tenant: str,
        *,
        seqno: int,
        api: str,
        thread: int,
        estimate: float,
        start_tag_after: float,
        backlog: int,
    ) -> None:
        self._record(
            (
                DISPATCH,
                t,
                vt,
                tenant,
                _DISPATCH_KEYS,
                (seqno, api, thread, estimate, start_tag_after, backlog),
            )
        )

    def complete(
        self,
        t: float,
        vt: float,
        tenant: str,
        *,
        seqno: int,
        api: str,
        actual: float,
        charged: float,
        start_tag_after: float,
        running: int,
    ) -> None:
        self._record(
            (
                COMPLETE,
                t,
                vt,
                tenant,
                _COMPLETE_KEYS,
                (
                    seqno,
                    api,
                    actual,
                    charged,
                    charged - actual,
                    start_tag_after,
                    running,
                ),
            )
        )

    def vt_update(
        self,
        t: float,
        vt: float,
        tenant: Optional[str],
        *,
        reason: str,
        **fields: Any,
    ) -> None:
        self._record(_open_row(VT_UPDATE, t, vt, tenant, "reason", reason, fields))

    def cancel(
        self,
        t: float,
        vt: Optional[float],
        tenant: str,
        *,
        seqno: int,
        api: str,
        was_running: bool,
        backlog: int,
    ) -> None:
        self._record(
            (CANCEL, t, vt, tenant, _CANCEL_KEYS, (seqno, api, was_running, backlog))
        )

    def fault(
        self,
        t: float,
        fault: str,
        *,
        tenant: Optional[str] = None,
        **fields: Any,
    ) -> None:
        self._record(_open_row(FAULT, t, None, tenant, "fault", fault, fields))

    def invariant(
        self,
        t: float,
        code: str,
        *,
        vt: Optional[float] = None,
        tenant: Optional[str] = None,
        **fields: Any,
    ) -> None:
        self._record(_open_row(INVARIANT, t, vt, tenant, "code", code, fields))

    def estimate(
        self,
        t: float,
        tenant: str,
        *,
        api: str,
        old: Optional[float],
        new: float,
        actual: float,
    ) -> None:
        values = (api, old, new, actual)
        self._record((ESTIMATE, t, None, tenant, _ESTIMATE_KEYS, values))

    def route(
        self,
        t: float,
        tenant: str,
        *,
        seqno: int,
        server: Optional[int],
        policy: str,
        healthy: int,
        backlog: int,
        accepted: bool,
        reason: Optional[str] = None,
    ) -> None:
        """One fleet routing decision: request ``seqno`` placed on
        ``server`` (or refused -- ``accepted=False`` with a ``reason``
        and ``server=None``) by router ``policy`` choosing among
        ``healthy`` routable servers with ``backlog`` requests queued
        fleet-wide at decision time."""
        values: Tuple[Any, ...] = (seqno, server, policy, healthy, backlog, accepted)
        keys = _ROUTE_KEYS
        if reason is not None:
            keys, values = _ROUTE_REASON_KEYS, values + (reason,)
        self._record((ROUTE, t, None, tenant, keys, values))

    # -- inspection ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """Events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def __repr__(self) -> str:
        return f"Tracer({self.name!r}, events={len(self.rows)})"


def _open_row(
    kind: str,
    t: float,
    vt: Optional[float],
    tenant: Optional[str],
    head: str,
    value: Any,
    fields: Dict[str, Any],
) -> Row:
    """Row whose payload is one named field plus free ``**fields``: the
    vt_update, fault and invariant emitters' and the audit fold's."""
    return (kind, t, vt, tenant, (head, *fields), (value, *fields.values()))
