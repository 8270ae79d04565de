"""What an export derives from the tracer's rows: per-kind counts and
flight-recorder dumps.

The tracer keeps one event record, its rows.  ``event_counts`` and the
flight-recorder fold (``flight_payload``) are computed from them at
export; these tests hold both to the live records they replaced -- a
counter of rows with the old per-emitter counter rules, and the old ring
buffer (``tests/reference/flight_ring.py``), each fed the rows after
the run -- and pin what a run that overflows ``max_events`` reports.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.degradation import degradation_config
from repro.experiments.expensive_requests import expensive_requests_population
from repro.experiments.fleet import run_fleet
from repro.experiments.runner import run_single
from repro.faults import FaultPlan, ServerCrash
from repro.obs import AuditConfig, FairnessAuditor, TraceEvent, Tracer, event_counts
from repro.obs.events import (
    AUDIT,
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
)
from repro.obs.exporters import flight_payload
from repro.obs.session import trace_session

from reference.flight_ring import FlightRing

CHAOS_PLAN = Path(__file__).parent / "data" / "chaos_plan.json"


class CountingSink:
    """The registry counters the typed emitters used to increment: one
    count per row, by the emitter's rule."""

    WHOLE = {
        DISPATCH: "scheduler.dispatches",
        COMPLETE: "scheduler.completions",
        CANCEL: "scheduler.cancellations",
        ESTIMATE: "estimator.refreshes",
        INVARIANT: "validate.violations",
        ROUTE: "fleet.route_decisions",
    }

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def on_event(self, row) -> None:
        kind, data = row[0], dict(zip(row[4], row[5]))
        if kind in self.WHOLE:
            self.counts[self.WHOLE[kind]] += 1
        if kind == ROUTE and not data["accepted"]:
            self.counts["fleet.rejections"] += 1
        elif kind == FAULT:
            self.counts[f"faults.{data['fault']}"] += 1
        elif kind == AUDIT:
            self.counts[f"audit.{data['monitor']}"] += 1


def counted(rows) -> CountingSink:
    """A :class:`CountingSink` fed ``rows`` in order."""
    sink = CountingSink()
    for row in rows:
        sink.on_event(row)
    return sink


class TestEventCounts:
    def test_chaos_plan_run_counts_equal_the_counting_sink(self):
        """The figfault configuration under the committed chaos plan:
        slowdowns, a crash, deadlines with retries and an estimator
        outage, traced and audited."""
        config = dataclasses.replace(
            degradation_config(schedulers=("2dfq-e",), duration=2.0),
            fault_plan=FaultPlan.load(CHAOS_PLAN),
        )
        specs = expensive_requests_population(num_small=10, total=20)
        tracer = Tracer("figfault-chaos")
        run_single("2dfq-e", specs, config, tracer=tracer)
        audit = FairnessAuditor(AuditConfig()).fold(tracer.rows, tracer.samples)
        rows = audit.merged(tracer.rows)
        counts = event_counts(rows)
        assert counts == dict(counted(rows).counts)
        for name in (
            "scheduler.dispatches",
            "scheduler.cancellations",
            "estimator.refreshes",
            "faults.worker_crash",
            "faults.retry",
            "audit.bursty",
        ):
            assert counts.get(name, 0) > 0, name

    def test_fleet_crash_run_with_rejections(self):
        """Both servers of a fleet die: requests are routed, drained,
        retried, abandoned and finally rejected."""
        plan = FaultPlan(
            server_crashes=(ServerCrash(server=0, at=0.2), ServerCrash(server=1, at=0.3))
        )
        tracer = Tracer("fleet-rejects")
        run_fleet(
            num_servers=2, num_threads=2, duration=0.6, plan=plan, tracer=tracer
        )
        counts = event_counts(tracer.rows)
        assert counts == dict(counted(tracer.rows).counts)
        assert counts["fleet.rejections"] > 0
        assert counts["fleet.route_decisions"] > counts["fleet.rejections"]
        assert counts["faults.server_crash"] == 2

    def test_rejections_are_counted_without_fault_rows(self):
        tracer = Tracer("routes")
        for seqno, accepted in enumerate((True, False, True)):
            tracer.route(
                0.0, "A", seqno=seqno, server=0 if accepted else None,
                policy="round-robin", healthy=int(accepted), backlog=0,
                accepted=accepted,
            )
        assert event_counts(tracer.rows) == {
            "fleet.route_decisions": 3,
            "fleet.rejections": 1,
        }

    def test_kinds_without_rows_are_left_out(self):
        tracer = Tracer("quiet")
        tracer.vt_update(0.0, 0.0, None, reason="r")
        assert event_counts(tracer.rows) == {}
        assert event_counts([]) == {}


# -- the flight-recorder fold against the ring ----------------------------------

OTHER_KINDS = (ENQUEUE, SELECT, DISPATCH, COMPLETE, VT_UPDATE, ESTIMATE, CANCEL)


def row_of(kind: str, t: float):
    if kind == FAULT:
        data = {"fault": "worker_crash", "worker": int(t) % 3}
    elif kind == INVARIANT:
        data = {"code": "vt-monotonic", "op": "dequeue"}
    else:
        data = {"seqno": int(t)}
    return TraceEvent(kind, t, t / 2, "A" if int(t) % 2 else None, data).as_row()


@st.composite
def streams(draw):
    """A capacity in 1..64 and a row stream with more than four trigger
    rows, one before the ring fills and one after it has."""
    capacity = draw(st.integers(1, 64))
    trigger = st.sampled_from((FAULT, INVARIANT))
    body = draw(
        st.lists(
            st.one_of(st.sampled_from(OTHER_KINDS), trigger),
            min_size=capacity,
            max_size=capacity + 80,
        )
    )
    late = draw(st.lists(trigger, min_size=4, max_size=8))
    for kind in late:
        body.insert(draw(st.integers(capacity, len(body))), kind)
    kinds = [draw(trigger)] + body
    return capacity, [row_of(kind, float(i)) for i, kind in enumerate(kinds)]


@settings(max_examples=60, deadline=None)
@given(streams())
def test_fold_payload_equals_the_ring(stream):
    capacity, rows = stream
    ring = FlightRing(capacity)
    for row in rows:
        ring.on_event(row)
    assert sum(row[0] in (FAULT, INVARIANT) for row in rows) > 4
    assert json.dumps(flight_payload(rows, capacity), sort_keys=True) == json.dumps(
        ring.payload(), sort_keys=True
    )


def test_fold_payload_equals_the_ring_as_a_tracer_sink():
    """The ring fed a traced run's rows with the audit's drift trips
    merged in dumps exactly what the fold reads back from those rows."""
    tracer = Tracer("live")
    for i in range(12):
        tracer.complete(
            float(i), float(i), "B", seqno=i, api="x", actual=1.0,
            charged=5.0 if i % 3 else 1.0, start_tag_after=0.0, running=0,
        )
        if i % 2:
            tracer.fault(float(i), "worker_stall", worker=i)
    audit = FairnessAuditor(
        AuditConfig(drift_min_observations=1, drift_threshold=0.05)
    ).fold(tracer.rows, tracer.samples)
    rows = audit.merged(tracer.rows)
    assert AUDIT in {row[0] for row in rows}
    ring = FlightRing(8)
    for row in rows:
        ring.on_event(row)
    assert flight_payload(rows, 8) == ring.payload()


# -- overflow ---------------------------------------------------------------------


def test_overflowing_run_counts_only_the_retained_rows(tmp_path):
    """A tracer capped below the run's row count: the manifest reports
    the overflow in ``trace.dropped_events``, and its per-kind counts
    and the flight dumps cover exactly the retained rows
    (``events.jsonl``).  The chaos plan's faults fire after the cap, so
    the run has no flight dump although its injector fired."""
    config = dataclasses.replace(
        degradation_config(schedulers=("2dfq",), duration=1.0),
        fault_plan=FaultPlan.load(CHAOS_PLAN),
    )
    specs = expensive_requests_population(num_small=5, total=10)
    with trace_session(tmp_path, max_events=2_000, flight_events=16) as session:
        run_single("2dfq", specs, config)
    (run,) = session.runs
    run_dir = tmp_path / run
    manifest = json.loads((run_dir / "manifest.json").read_text())
    counters = manifest["counters"]
    lines = (run_dir / "events.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert counters["trace.events"] == len(events) == 2_000
    assert counters["trace.dropped_events"] > 0
    rows = [
        TraceEvent(e.pop("kind"), e.pop("t"), e.pop("vt", None), e.pop("tenant", None), e)
        .as_row()
        for e in events
    ]
    expected = event_counts(rows)
    assert expected["scheduler.dispatches"] > 0
    # Every other counter is a registry instrument, not an event count.
    registry = ("collector.", "server.", "events.", "trace.")
    assert {k: v for k, v in counters.items() if not k.startswith(registry)} == expected
    assert manifest["faults"]["crashes"] > 0
    assert not any(row[0] in (FAULT, INVARIANT) for row in rows)
    assert not (run_dir / "flight_recorder.json").exists()
