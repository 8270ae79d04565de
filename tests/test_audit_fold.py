"""The fairness audit as an export-time fold, held to the live auditor.

``FairnessAuditor.fold`` reads a run's record -- its trace rows and the
collector's samples, each stamped with the rows stored before it --
after the run.  The auditor it replaced (``tests/reference/
live_auditor.py``) ran during the run as a tracer sink and a collector
sample hook, emitting its trips into the tracer as they happened.
Replaying drawn row and sample streams into that oracle in their
recorded order, the fold's merged rows, report and gauges must equal
the oracle tracer's rows, its report and its registry.

The streams draw enqueue/dispatch/cancel/complete rows, tenants that
first appear mid-run, lag and bursty trips with their hysteresis clears
and estimator-drift trips and clears.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fleet import run_fleet
from repro.obs import AuditConfig, FairnessAuditor, TraceEvent, Tracer
from repro.obs.events import CANCEL, COMPLETE, DISPATCH, ENQUEUE
from repro.obs.session import TraceSession, trace_session

from reference.live_auditor import FairnessAuditor as LiveAuditor
from reference.live_auditor import LiveTracer

TENANTS = ("A", "B", "C")
#: Per-sample service increments: smooth, idle and bursty allocations.
SERVICE = st.sampled_from((0.0, 0.0, 0.25, 1.0, 1.0, 4.0))
#: Charged/actual ratios: exact, close, and far off the actual cost.
CHARGE = st.sampled_from((1.0, 1.0, 1.1, 3.0, 0.2))


def make_row(kind: str, t: float, tenant: str, draw):
    if kind == ENQUEUE:
        data = {"seqno": 0, "api": "x", "cost": 1.0}
    elif kind == DISPATCH:
        data = {"seqno": 0, "api": "x", "thread": 0}
    elif kind == CANCEL:
        data = {"seqno": 0, "api": "x", "was_running": draw(st.booleans())}
    else:
        actual = draw(st.sampled_from((0.0, 1.0, 2.0)))
        charged = actual * draw(CHARGE)
        data = {"seqno": 0, "api": "x", "actual": actual, "charged": charged}
    return TraceEvent(kind, t, t, tenant, data).as_row()


@st.composite
def records(draw):
    """An audit config and a run's record as ``(kind, item)`` steps in
    recorded order: ``("row", row)`` or ``("sample", (t, actual,
    gps))``."""
    config = AuditConfig(
        capacity=draw(st.sampled_from((None, 1.0, 3.0))),
        lag_threshold_seconds=draw(st.sampled_from((0.5, 1.0))),
        burst_window=draw(st.integers(2, 3)),
        burst_cov_threshold=draw(st.sampled_from((0.5, 1.0))),
        burst_consecutive=draw(st.integers(1, 2)),
        drift_threshold=draw(st.sampled_from((0.3, 0.6))),
        drift_min_observations=draw(st.integers(0, 3)),
        drift_alpha=draw(st.sampled_from((0.5, 1.0))),
    )
    t = 0.0
    seen = []  # tenants in order of first appearance
    actual, gps = {}, {}
    steps = []
    for _ in range(draw(st.integers(0, 60))):
        t += draw(st.sampled_from((0.0, 0.25, 0.5)))
        if draw(st.integers(0, 3)) == 0:
            for tenant in seen:
                actual[tenant] += draw(SERVICE)
                gps[tenant] += draw(SERVICE)
            # The collector builds fresh dicts for every sample.
            steps.append(("sample", (t, dict(actual), dict(gps))))
        else:
            kind = draw(st.sampled_from((ENQUEUE, ENQUEUE, DISPATCH, CANCEL, COMPLETE)))
            # A tenant's first row may come at any point in the run.
            tenant = draw(st.sampled_from(TENANTS))
            if tenant not in actual:
                seen.append(tenant)
                actual[tenant] = gps[tenant] = 0.0
            steps.append(("row", make_row(kind, t, tenant, draw)))
    return config, steps


def replay(config, steps):
    """The live auditor's tracer after the run: each row stored, then
    handed to ``on_event``, as the tracer's sink loop did."""
    tracer = LiveTracer("live")
    oracle = LiveAuditor(config, tracer)
    for kind, item in steps:
        if kind == "row":
            tracer.rows.append(item)
            oracle.on_event(item)
        else:
            oracle.on_sample(*item)
    return tracer, oracle


def record_of(steps):
    """The tracer record of the same run: the rows, and each sample with
    the number of rows before it."""
    tracer = Tracer("folded")
    for kind, item in steps:
        if kind == "row":
            tracer.rows.append(item)
        else:
            tracer.sample(*item)
    return tracer


@settings(max_examples=300, deadline=None)
@given(records())
def test_fold_equals_the_live_auditor(record):
    config, steps = record
    live, oracle = replay(config, steps)
    tracer = record_of(steps)
    audit = FairnessAuditor(config).fold(tracer.rows, tracer.samples)
    assert audit.merged(tracer.rows) == live.rows
    assert json.dumps(audit.report, sort_keys=True) == json.dumps(
        oracle.report(), sort_keys=True
    )
    assert audit.gauges == live.registry.snapshot()


def test_the_strategy_reaches_every_trip_and_clear():
    """The drawn records make each monitor trip and clear."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(records())
    def collect(record):
        config, steps = record
        _, oracle = replay(config, steps)
        for trip in oracle.trips:
            seen.add((trip["monitor"], trip["tripped"]))

    collect()
    monitors = ("lag", "bursty", "estimator_drift")
    assert seen >= {(m, flag) for m in monitors for flag in (True, False)}


def test_an_overflowed_run_reports_rows_dropped():
    tracer = Tracer("capped", max_events=2)
    for i in range(3):
        tracer.enqueue(
            float(i), 0.0, "A", seqno=i, api="x", cost=1.0, start_tag=0.0,
            queue_depth=i + 1, backlog=i + 1,
        )
    tracer.sample(3.0, {"A": 0.0}, {"A": 0.0})
    assert tracer.samples[0][0] == 2
    full = FairnessAuditor().fold(tracer.rows, tracer.samples, tracer.dropped_events)
    assert full.report["rows_dropped"] == 1
    kept = FairnessAuditor().fold(tracer.rows, tracer.samples)
    assert "rows_dropped" not in kept.report


def test_a_run_without_samples_exports_no_audit(tmp_path):
    """An audited session audits the runs whose record holds samples;
    fleet runs and worked examples keep none and export no audit
    artifacts."""
    with trace_session(tmp_path, audit=AuditConfig()) as session:
        run_fleet(num_servers=2, num_threads=2, duration=0.3)
    (run,) = session.runs
    run_dir = tmp_path / run
    assert not (run_dir / "audit_report.json").exists()
    assert "audit" not in json.loads((run_dir / "manifest.json").read_text())


def test_capacity_comes_from_the_experiment_config(tmp_path):
    session = TraceSession(tmp_path, audit=AuditConfig())
    tracer = session.tracer("lagging")
    # One tenant 0.5 units behind GPS: 0.5 s at capacity 1.0 (trips
    # the 0.25 s threshold), 0.125 s at capacity 4.0 (does not).
    tracer.sample(1.0, {"A": 0.0}, {"A": 0.5})
    slow = session.export_run(tracer, config={"num_threads": 1, "thread_rate": 1.0})
    fast = session.export_run(tracer, config={"num_threads": 2, "thread_rate": 2.0})
    lagging = [
        json.loads((run_dir / "audit_report.json").read_text())["monitors"]["lag"][
            "ever_tripped"
        ]
        for run_dir in (slow, fast)
    ]
    assert lagging == [["A"], []]
