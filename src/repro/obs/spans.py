"""Request-lifecycle spans derived from the decision-event stream.

The tracer records *decisions* (enqueue, select, dispatch, complete,
cancel); this module folds them into per-request **spans** that answer
the paper's explanatory question directly: *why did this request wait?*
Each span carries its full lifecycle (possibly multiple attempts, when a
worker crash forced a re-dispatch) and a **wait-time decomposition**:
the queueing interval is partitioned at the occupancy boundaries
(:func:`~repro.obs.events.occupancies`, the fold the Chrome trace's
slices come from) of the thread -- on its fleet server -- the request
eventually ran on, attributing every sub-interval to
the specific request that was holding that thread -- head-of-line
blocking attribution ("small request 17 of A waited behind request 4 of
B for 3.0s") -- or to thread idleness (only possible around worker
crashes/stalls).

The decomposition is exact by construction and the property tests pin
it across every scheduler: for each completed request,

    sum(blocking interval durations) == wait        (queueing delay)
    wait + service                   == latency

Spans are pure derivation -- nothing here runs during the simulation;
feed :func:`build_spans` a tracer's rows, or :func:`spans_from_jsonl`
an exported ``events.jsonl``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .events import (
    CANCEL,
    COMPLETE,
    DISPATCH,
    ENQUEUE,
    Occupancy,
    Row,
    occupancies,
    row_field,
)

__all__ = [
    "BlockingInterval",
    "Attempt",
    "RequestSpan",
    "SpanSet",
    "build_spans",
    "spans_from_jsonl",
]


@dataclass(frozen=True)
class BlockingInterval:
    """One attributed sub-interval of a request's queueing delay.

    ``kind`` is ``"running"`` (the thread was executing ``blocker_seqno``
    of ``blocker_tenant``) or ``"idle"`` (the thread had no occupant --
    crash/stall windows; never happens on a healthy work-conserving
    run).
    """

    start: float
    end: float
    kind: str
    thread: Optional[int] = None
    blocker_seqno: Optional[int] = None
    blocker_tenant: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "start": self.start,
            "end": self.end,
            "kind": self.kind,
        }
        if self.thread is not None:
            out["thread"] = self.thread
        if self.blocker_seqno is not None:
            out["blocker_seqno"] = self.blocker_seqno
            out["blocker_tenant"] = self.blocker_tenant
        return out


@dataclass
class Attempt:
    """One enqueue->(dispatch->)end cycle of a request.

    A request normally has exactly one attempt; a worker crash cancels
    the running attempt (charge refunded) and re-enqueues the request,
    opening a new one.
    """

    enqueue_t: float
    dispatch_t: Optional[float] = None
    end_t: Optional[float] = None
    thread: Optional[int] = None
    estimate: Optional[float] = None
    outcome: str = "queued"  # queued | running | completed | cancelled
    blocking: List[BlockingInterval] = field(default_factory=list)

    @property
    def wait(self) -> float:
        """Queueing delay of this attempt (0 while still queued)."""
        if self.dispatch_t is not None:
            return self.dispatch_t - self.enqueue_t
        if self.end_t is not None:  # cancelled while queued
            return self.end_t - self.enqueue_t
        return 0.0

    @property
    def service(self) -> float:
        """Thread time consumed by this attempt (0 if never dispatched)."""
        if self.dispatch_t is None or self.end_t is None:
            return 0.0
        return self.end_t - self.dispatch_t


@dataclass
class RequestSpan:
    """The reconstructed lifecycle of one request (by global seqno)."""

    tenant: str
    seqno: int
    api: str
    cost: float
    attempts: List[Attempt] = field(default_factory=list)

    @property
    def enqueue_t(self) -> float:
        return self.attempts[0].enqueue_t

    @property
    def end_t(self) -> Optional[float]:
        return self.attempts[-1].end_t

    @property
    def outcome(self) -> str:
        return self.attempts[-1].outcome

    @property
    def wait(self) -> float:
        """Total queueing delay across attempts."""
        return sum(attempt.wait for attempt in self.attempts)

    @property
    def service(self) -> float:
        """Total thread time across attempts (crash-lost work included)."""
        return sum(attempt.service for attempt in self.attempts)

    @property
    def latency(self) -> Optional[float]:
        """End-to-end first-enqueue to completion; ``None`` unless the
        span completed."""
        if self.outcome != "completed" or self.end_t is None:
            return None
        return self.end_t - self.enqueue_t

    @property
    def blocking(self) -> List[BlockingInterval]:
        return [b for attempt in self.attempts for b in attempt.blocking]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.tenant,
            "seqno": self.seqno,
            "api": self.api,
            "cost": self.cost,
            "outcome": self.outcome,
            "enqueue_t": self.enqueue_t,
            "end_t": self.end_t,
            "wait": self.wait,
            "service": self.service,
            "latency": self.latency,
            "attempts": len(self.attempts),
            "blocking": [b.as_dict() for b in self.blocking],
        }


class SpanSet:
    """All spans of one run, with head-of-line aggregation helpers."""

    def __init__(self, spans: List[RequestSpan]) -> None:
        self.spans = spans
        self.by_seqno: Dict[int, RequestSpan] = {s.seqno: s for s in spans}

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[RequestSpan]:
        return iter(self.spans)

    def completed(self) -> List[RequestSpan]:
        return [s for s in self.spans if s.outcome == "completed"]

    def hol_report(self, top: int = 10) -> List[Dict[str, Any]]:
        """Aggregate head-of-line blocking: per blocking tenant, the
        total seconds of queueing delay it imposed on *other* tenants
        and how many of their requests it blocked -- the quantitative
        form of the paper's "small requests wait behind expensive ones"
        claim, ranked worst first."""
        blocked_seconds: Dict[str, float] = {}
        victims: Dict[str, Set[int]] = {}
        for span in self.spans:
            for interval in span.blocking:
                blocker = interval.blocker_tenant
                if interval.kind != "running" or blocker is None:
                    continue
                if blocker == span.tenant:
                    continue
                blocked_seconds[blocker] = (
                    blocked_seconds.get(blocker, 0.0) + interval.duration
                )
                victims.setdefault(blocker, set()).add(span.seqno)
        rows = [
            {
                "tenant": tenant,
                "blocked_seconds": seconds,
                "victim_requests": len(victims[tenant]),
            }
            for tenant, seconds in blocked_seconds.items()
        ]
        rows.sort(key=lambda r: (-r["blocked_seconds"], r["tenant"]))
        return rows[:top]

    def summary(self) -> Dict[str, Any]:
        """JSON-ready roll-up for manifests and audit reports."""
        completed = self.completed()
        return {
            "requests": len(self.spans),
            "completed": len(completed),
            "cancelled": sum(1 for s in self.spans if s.outcome == "cancelled"),
            "redispatched": sum(1 for s in self.spans if len(s.attempts) > 1),
            "total_wait": sum(s.wait for s in self.spans),
            "total_service": sum(s.service for s in self.spans),
            "hol_blocking": self.hol_report(),
        }


# -- construction ---------------------------------------------------------------


_HEADER = ("kind", "t", "vt", "tenant")
_SPAN_KINDS = frozenset((ENQUEUE, DISPATCH, COMPLETE, CANCEL))


def build_spans(rows: Sequence[Row]) -> SpanSet:
    """Fold the tracer's rows (:attr:`~repro.obs.tracer.Tracer.rows`,
    in emission order) into request spans with exact blocking
    attribution.

    Rows of kinds other than enqueue/dispatch/complete/cancel are
    ignored, so a full mixed stream can be passed as-is.  Who held a
    thread comes from :func:`~repro.obs.events.occupancies`, keyed by
    ``(server, thread)``, so in a fleet a request is only ever blamed
    on requests of its own server.
    """
    tenure = occupancies(rows)
    histories: Dict[Tuple[Optional[int], int], List[Occupancy]] = {}
    for occ in tenure:
        histories.setdefault((occ.server, occ.thread), []).append(occ)
    opened = {occ.row: occ for occ in tenure}
    spans: Dict[int, RequestSpan] = {}
    order: List[int] = []
    #: Dispatched attempts with the occupancy their dispatch opened.
    dispatched: List[Tuple[Attempt, Occupancy]] = []

    for index, row in enumerate(rows):
        kind, t, _, tenant, keys, values = row
        if kind not in _SPAN_KINDS:
            continue
        seqno = values[keys.index("seqno")]
        span = spans.get(seqno)
        if kind == ENQUEUE:
            if span is None:
                span = RequestSpan(
                    tenant="?" if tenant is None else tenant,
                    seqno=seqno,
                    api=row_field(row, "api", ""),
                    cost=row_field(row, "cost", 0.0),
                )
                spans[seqno] = span
                order.append(seqno)
            span.attempts.append(Attempt(enqueue_t=t))
            continue
        if span is None or not span.attempts:
            continue  # trace started mid-run; no enqueue seen
        attempt = span.attempts[-1]
        if kind == DISPATCH:
            attempt.dispatch_t = t
            attempt.thread = row_field(row, "thread")
            attempt.estimate = row_field(row, "estimate")
            attempt.outcome = "running"
            occ = opened.get(index)
            if occ is not None:
                dispatched.append((attempt, occ))
        else:
            attempt.end_t = t
            attempt.outcome = "completed" if kind == COMPLETE else "cancelled"

    for attempt, occ in dispatched:
        attempt.blocking = _attribute_wait(
            attempt.enqueue_t,
            occ.start,
            occ.thread,
            occ.seqno,
            histories[(occ.server, occ.thread)],
        )
    return SpanSet([spans[seqno] for seqno in order])


def _attribute_wait(
    enqueue_t: float,
    dispatch_t: float,
    thread: int,
    seqno: int,
    history: Iterable[Occupancy],
) -> List[BlockingInterval]:
    """Partition ``[enqueue_t, dispatch_t)`` at the occupancy boundaries
    of ``thread``, yielding one interval per blocking request plus idle
    gaps, in time order.  The partition is contiguous (interval ``i``
    ends where ``i+1`` starts), which is what makes the wait sum exact.
    """
    if dispatch_t <= enqueue_t:
        return []
    out: List[BlockingInterval] = []
    cursor = enqueue_t
    for occ in history:
        if occ.seqno == seqno and occ.start >= dispatch_t - 1e-18:
            continue  # the request's own tenure
        if occ.end <= cursor or occ.start >= dispatch_t:
            continue
        start = max(occ.start, cursor)
        if start > cursor:
            out.append(
                BlockingInterval(cursor, start, kind="idle", thread=thread)
            )
        clipped_end = min(occ.end, dispatch_t)
        if clipped_end > start:
            out.append(
                BlockingInterval(
                    start,
                    clipped_end,
                    kind="running",
                    thread=thread,
                    blocker_seqno=occ.seqno,
                    blocker_tenant=occ.tenant,
                )
            )
            cursor = clipped_end
        else:
            cursor = start
        if cursor >= dispatch_t:
            break
    if cursor < dispatch_t:
        out.append(
            BlockingInterval(cursor, dispatch_t, kind="idle", thread=thread)
        )
    return out


def _row(line: Dict[str, Any]) -> Row:
    """The row of one parsed ``events.jsonl`` line."""
    payload = {key: value for key, value in line.items() if key not in _HEADER}
    return (
        line["kind"],
        line["t"],
        line.get("vt"),
        line.get("tenant"),
        tuple(payload),
        tuple(payload.values()),
    )


def spans_from_jsonl(path: Union[str, Path]) -> SpanSet:
    """Build spans straight from an exported ``events.jsonl``."""
    with Path(path).open() as fh:
        return build_spans([_row(json.loads(line)) for line in fh if line.strip()])
