"""Fairness-auditor, audited-session and flight-recorder tests.

The acceptance criterion for the bursty monitor (ISSUE 7) is the last
class: on the Fig-9 production workload the auditor flags WFQ and WF²Q
as bursty and stays quiet for 2DFQ.  Burstiness under WF²Q manifests at
the granularity of individual expensive requests (paper Fig 5), so the
acceptance run samples at 20 ms -- at the default 100 ms interval each
sample aggregates enough requests to smooth WF²Q's oscillation away,
while WFQ's multi-second starvation bursts remain visible at any
sampling rate.
"""

import dataclasses
import json

import pytest

from repro.experiments.production import (
    production_config,
    production_specs,
    production_trace,
)
from repro.experiments.runner import run_single
from repro.experiments.unpredictable import unpredictable_config
from repro.obs import (
    AuditConfig,
    FairnessAuditor,
    TraceEvent,
    TraceSession,
    Tracer,
    event_counts,
    trace_session,
    write_flight_recorder,
)
from repro.obs.exporters import flight_payload


# The audit folds tracer rows (repro.obs.events); these build them.


def enqueue_event(t, tenant, seqno, cost=1.0):
    return TraceEvent(
        "enqueue", t, None, tenant, {"seqno": seqno, "cost": cost, "api": "op"}
    ).as_row()


def dispatch_event(t, tenant, seqno):
    return TraceEvent(
        "dispatch", t, 0.0, tenant, {"seqno": seqno, "thread": 0}
    ).as_row()


def complete_event(t, tenant, actual, charged):
    return TraceEvent(
        "complete", t, None, tenant, {"actual": actual, "charged": charged}
    ).as_row()


def fold(config, rows=(), samples=()):
    """The audit of a record: ``rows`` and ``(row_index, t, actual,
    gps)`` samples."""
    return FairnessAuditor(config).fold(list(rows), list(samples))


class TestLagMonitor:
    # Two tenants at capacity 2.0 -> fair rate 1.0, so lag in service
    # units reads directly as seconds.
    CFG = AuditConfig(capacity=2.0, lag_threshold_seconds=0.25)
    FIRST = (0, 1.0, {"A": 0.0, "B": 1.0}, {"A": 0.5, "B": 0.5})

    def test_trips_above_threshold_and_clears_with_hysteresis(self):
        samples = [
            self.FIRST,
            # 0.2 s of lag is below the 0.25 s trip threshold but above
            # the 0.125 s clear threshold: the trip must hold (no
            # flapping).
            (0, 2.0, {"A": 1.0, "B": 2.0}, {"A": 1.2, "B": 1.0}),
            (0, 3.0, {"A": 3.0, "B": 3.0}, {"A": 3.0, "B": 3.0}),
        ]

        def lagging(count):
            report = fold(self.CFG, samples=samples[:count]).report
            return report["monitors"]["lag"]["currently_tripped"]

        assert lagging(1) == ["A"]
        assert lagging(2) == ["A"]
        assert lagging(3) == []
        report = fold(self.CFG, samples=samples).report
        assert report["monitors"]["lag"]["ever_tripped"] == ["A"]
        tripped_flags = [e["tripped"] for e in report["trips"] if e["tenant"] == "A"]
        assert tripped_flags == [True, False]

    def test_trip_record_carries_lag_and_threshold(self):
        (entry,) = fold(self.CFG, samples=[self.FIRST]).report["trips"]
        assert entry["monitor"] == "lag"
        assert entry["lag_seconds"] == pytest.approx(0.5)
        assert entry["threshold"] == 0.25
        assert entry["t"] == 1.0

    def test_without_capacity_the_lag_monitor_is_inert(self):
        sample = (0, 1.0, {"A": 0.0}, {"A": 100.0})
        audit = fold(AuditConfig(capacity=None), samples=[sample])
        assert audit.report["trips"] == []


class TestBurstyMonitor:
    CFG = AuditConfig(
        capacity=4.0,
        lag_threshold_seconds=1e9,  # isolate the bursty monitor
        burst_window=4,
        burst_cov_threshold=1.0,
        burst_consecutive=2,
    )

    #: Tenant A backlogged with 20 queued requests from t=0.
    BACKLOG = [enqueue_event(0.0, "A", i) for i in range(20)]

    def feed(self, rows, deltas):
        """Samples of tenant A, one per second from t=0, served
        ``deltas`` in turn, all taken after ``rows``."""
        total, t = 0.0, 0.0
        samples = [(len(rows), t, {"A": total}, {"A": total})]
        for delta in deltas:
            t += 1.0
            total += delta
            samples.append((len(rows), t, {"A": total}, {"A": total}))
        return samples

    def bursty(self, rows, samples):
        return fold(self.CFG, rows, samples).report["monitors"]["bursty"]

    def test_on_off_service_to_a_backlogged_tenant_trips(self):
        # Served in bursts: the whole fair share in one interval out of
        # four.  Window [4,0,0,0]: CoV = sqrt(3) ~ 1.73 > 1.0.
        samples = self.feed(self.BACKLOG, [4, 0, 0, 0, 4, 0, 0, 0, 4])
        report = fold(self.CFG, self.BACKLOG, samples).report
        assert report["monitors"]["bursty"]["ever_tripped"] == ["A"]
        trip = next(e for e in report["trips"] if e["monitor"] == "bursty")
        assert trip["tripped"] is True
        assert trip["cov"] == pytest.approx(3.0**0.5)
        assert trip["window"] == 4

    def test_smooth_service_never_trips(self):
        samples = self.feed(self.BACKLOG, [1.0] * 12)
        assert self.bursty(self.BACKLOG, samples)["ever_tripped"] == []

    def test_trip_clears_once_service_smooths_out(self):
        bursts = [4, 0, 0, 0, 4, 0, 0, 0, 4]
        samples = self.feed(self.BACKLOG, bursts)
        assert self.bursty(self.BACKLOG, samples)["currently_tripped"] == ["A"]
        samples = self.feed(self.BACKLOG, bursts + [1.0] * 6)
        report = fold(self.CFG, self.BACKLOG, samples).report
        assert report["monitors"]["bursty"]["currently_tripped"] == []
        clear = [e for e in report["trips"] if e["monitor"] == "bursty"][-1]
        assert clear["tripped"] is False

    def test_idle_tenant_is_gated_out(self):
        """Bursty *arrivals* are not bursty *allocations*: with no
        enqueue events the tenant is never backlogged and the same
        on/off service pattern must not trip."""
        samples = self.feed([], [4, 0, 0, 0, 4, 0, 0, 0, 4])
        assert self.bursty([], samples)["ever_tripped"] == []

    def test_draining_the_queue_resets_the_window(self):
        rows = [
            enqueue_event(0.0, "A", 0),
            dispatch_event(0.0, "A", 0),  # queue empty again
        ]
        samples = self.feed(rows, [4, 0, 0, 0, 4, 0, 0, 0, 4])
        assert self.bursty(rows, samples)["ever_tripped"] == []


class TestEstimatorDriftMonitor:
    CFG = AuditConfig(drift_min_observations=3, drift_alpha=0.5, drift_threshold=0.5)

    def test_persistent_miscarge_trips_then_accuracy_clears(self):
        # |2 - 1|/1 = 1.0 relative error; EWMA -> 0.5, 0.75, 0.875.
        rows = [
            complete_event(float(i), "B", actual=1.0, charged=2.0) for i in range(3)
        ]
        report = fold(self.CFG, rows).report["monitors"]["estimator_drift"]
        assert report["tripped"] is True
        assert report["observations"] == 3
        assert report["ewma"] == pytest.approx(0.875)
        # Accurate charging decays the EWMA below threshold/2 -> clears.
        rows += [
            complete_event(float(i), "B", actual=1.0, charged=1.0) for i in range(3, 6)
        ]
        report = fold(self.CFG, rows).report
        assert report["monitors"]["estimator_drift"]["tripped"] is False
        drift = [e for e in report["trips"] if e["monitor"] == "estimator_drift"]
        assert [e["tripped"] for e in drift] == [True, False]
        # Drift is a run-wide monitor, not per-tenant.
        assert all(e["tenant"] is None for e in drift)

    def test_needs_minimum_observations(self):
        rows = [complete_event(0.0, "B", actual=1.0, charged=5.0)]
        assert fold(self.CFG, rows).report["trips"] == []

    def test_zero_actual_completions_are_skipped(self):
        rows = [
            complete_event(float(i), "B", actual=0.0, charged=1.0) for i in range(10)
        ]
        report = fold(self.CFG, rows).report
        assert report["monitors"]["estimator_drift"]["observations"] == 0


class TestTracerIntegration:
    def test_sink_responses_are_stored_after_their_cause(self):
        """A drift trip is placed directly after the ``complete`` that
        caused it; the merged rows, and so the flight-recorder dump
        folded from them, hold them in causal order."""
        tracer = Tracer("drift")
        tracer.complete(
            1.0, 1.0, "B", seqno=0, api="x", actual=1.0, charged=5.0,
            start_tag_after=0.0, running=0,
        )
        tracer.fault(2.0, "worker_crash", worker=0)
        audit = fold(
            AuditConfig(drift_min_observations=1, drift_threshold=0.05), tracer.rows
        )
        rows = audit.merged(tracer.rows)
        assert [row[0] for row in rows] == ["complete", "audit", "fault"]
        (dump,) = flight_payload(rows, 16)["dumps"]
        assert [e["kind"] for e in dump["ring"]] == ["complete", "audit", "fault"]

    def test_exported_drift_trip_follows_its_complete(self, tmp_path):
        """Regression: the exported stream used to hold the drift
        ``audit`` line *before* the ``complete`` line that tripped it."""
        config = dataclasses.replace(
            unpredictable_config(duration=0.3, seed=0), schedulers=("2dfq-e",)
        )
        specs = production_specs(num_random=20, seed=0, named_mode="backlogged")
        trace = production_trace(specs, config, open_loop_utilization=1.2)
        audit = AuditConfig(drift_min_observations=5, drift_threshold=0.05)
        with trace_session(tmp_path, audit=audit) as session:
            run_single("2dfq-e", specs, config, trace=trace)
        lines = (tmp_path / session.runs[0] / "events.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        trips = [
            i for i, e in enumerate(events)
            if e["kind"] == "audit" and e["monitor"] == "estimator_drift"
        ]
        assert trips, "scenario no longer trips the drift monitor"
        for i in trips:
            cause = events[i - 1]
            assert cause["kind"] == "complete" and cause["t"] == events[i]["t"]

    def test_trips_emit_audit_events_and_gauges(self):
        tracer = Tracer("audited")
        tracer.sample(1.0, {"A": 0.0, "B": 1.0}, {"A": 0.5, "B": 0.5})
        audit = fold(
            AuditConfig(capacity=2.0, lag_threshold_seconds=0.25),
            tracer.rows,
            tracer.samples,
        )
        rows = audit.merged(tracer.rows)
        (event,) = [TraceEvent.from_row(row) for row in rows]
        assert event.kind == "audit"
        assert event.tenant == "A"
        assert event.data["monitor"] == "lag"
        assert event.data["tripped"] is True
        assert event_counts(rows)["audit.lag"] == 1
        assert audit.gauges["audit.samples"] == 1.0
        assert audit.gauges["audit.tenants_lagging"] == 1.0
        assert audit.gauges["audit.tenants_bursty"] == 0.0

    def test_report_is_json_ready(self):
        audit = fold(AuditConfig(capacity=2.0), samples=[TestLagMonitor.FIRST])
        payload = json.dumps(audit.report)
        assert "monitors" in payload


def vt_row(t):
    return TraceEvent("vt_update", t, 0.0, None, {}).as_row()


class TestFlightRecorder:
    """The flight recorder is a fold of the run's rows at export
    (``repro.obs.exporters.flight_payload``)."""

    def test_ring_is_bounded(self):
        rows = [vt_row(float(i)) for i in range(5)]
        rows.append(TraceEvent("fault", 5.0, None, None, {"fault": "x"}).as_row())
        payload = flight_payload(rows, 3)
        (dump,) = payload["dumps"]
        assert [e["t"] for e in dump["ring"]] == [3.0, 4.0, 5.0]
        assert payload["events_seen"] == 6
        assert flight_payload(rows[:5], 3) is None

    def test_fault_triggers_a_dump_of_the_ring(self):
        trigger = TraceEvent("fault", 2.0, None, None, {"fault": "worker_crash"})
        rows = [
            TraceEvent("dispatch", 0.0, 0.0, "A", {"seqno": 0}).as_row(),
            TraceEvent("dispatch", 1.0, 1.0, "B", {"seqno": 1}).as_row(),
            trigger.as_row(),
        ]
        (dump,) = flight_payload(rows, 8)["dumps"]
        assert dump["trigger"] == trigger.as_dict()
        assert dump["events_seen"] == 3
        assert [e["kind"] for e in dump["ring"]] == ["dispatch", "dispatch", "fault"]

    def test_dump_storm_is_capped_and_counted(self):
        rows = [
            TraceEvent("invariant", float(i), None, None, {}).as_row()
            for i in range(6)
        ]
        payload = flight_payload(rows, 4)
        assert len(payload["dumps"]) == 4
        assert payload["suppressed_dumps"] == 2
        assert [d["events_seen"] for d in payload["dumps"]] == [1, 2, 3, 4]

    def test_write_round_trips(self, tmp_path):
        rows = [TraceEvent("fault", 0.0, None, None, {"fault": "x"}).as_row()]
        path = write_flight_recorder(rows, tmp_path / "flight.json", 4)
        payload = json.loads(path.read_text())
        assert payload["capacity"] == 4
        assert payload["trigger_kinds"] == ["fault", "invariant"]
        assert len(payload["dumps"]) == 1
        assert write_flight_recorder(rows[:0], tmp_path / "none.json", 4) is None
        assert not (tmp_path / "none.json").exists()

    def test_sink_sees_events_past_the_tracer_cap(self):
        """Past ``max_events`` the tracer keeps no row; the fold covers
        the retained rows only, and ``dropped_events`` counts the rest."""
        tracer = Tracer("t", max_events=1)
        tracer.vt_update(0.0, 0.0, None, reason="a")
        tracer.vt_update(1.0, 1.0, None, reason="b")
        tracer.fault(2.0, "worker_crash", worker=0)
        assert len(tracer) == 1  # tracer itself capped
        assert tracer.dropped_events == 2
        # The trigger was dropped, so the fold has nothing to dump.
        assert flight_payload(tracer.rows, 8) is None


class TestAuditedSessionArtifacts:
    def test_export_run_writes_audit_artifacts(self, tmp_path):
        session = TraceSession(tmp_path, audit=AuditConfig(capacity=2.0))
        tracer = session.tracer("fig9 (wfq)")
        tracer.sample(1.0, {"A": 0.0, "B": 1.0}, {"A": 0.5, "B": 0.5})
        tracer.fault(2.0, "worker_crash", worker=1)
        run_dir = session.export_run(tracer)
        report = json.loads((run_dir / "audit_report.json").read_text())
        assert report["monitors"]["lag"]["ever_tripped"] == ["A"]
        # The audit's gauges and the per-kind counts land in the manifest.
        counters = json.loads((run_dir / "manifest.json").read_text())["counters"]
        assert counters["audit.samples"] == 1.0
        assert counters["faults.worker_crash"] == 1
        flight_payload = json.loads((run_dir / "flight_recorder.json").read_text())
        assert len(flight_payload["dumps"]) == 1

    def test_flight_artifact_omitted_without_dumps(self, tmp_path):
        session = TraceSession(tmp_path, audit=AuditConfig(capacity=2.0))
        tracer = session.tracer("quiet")
        # An audited session audits the runs whose record holds samples.
        tracer.sample(1.0, {"A": 1.0}, {"A": 1.0})
        run_dir = session.export_run(tracer)
        assert (run_dir / "audit_report.json").exists()
        assert not (run_dir / "flight_recorder.json").exists()


class TestFig9Acceptance:
    """The paper's observable claim, as an auditor property: on the
    production workload WFQ and WF²Q give backlogged tenants bursty
    allocations, 2DFQ gives them smooth ones (Figs 5, 9)."""

    def test_bursty_auditor_separates_the_schedulers(self):
        config = dataclasses.replace(
            production_config(duration=3.0), sample_interval=0.02
        )
        specs = production_specs(
            num_random=20, include_fixed=True, named_mode="backlogged"
        )
        trace = production_trace(specs, config, open_loop_utilization=0.5)
        flagged = {}
        for name in ("wfq", "wf2q", "2dfq"):
            # The audit folds the retained rows: keep them all.
            tracer = Tracer(f"fig9-audit-{name}")
            run_single(name, specs, config, trace=trace, tracer=tracer)
            auditor = FairnessAuditor(AuditConfig(capacity=config.capacity))
            auditor.fold(tracer.rows, tracer.samples)
            flagged[name] = auditor.ever_tripped("bursty")
        assert flagged["wfq"], "WFQ must flag bursty allocations"
        assert flagged["wf2q"], "WF²Q must flag bursty allocations"
        assert flagged["2dfq"] == [], "2DFQ must stay quiet"
        # WFQ's starvation bursts are broader than WF²Q's per-request
        # oscillation: it should flag at least as many tenants.
        assert len(flagged["wfq"]) >= len(flagged["wf2q"])
