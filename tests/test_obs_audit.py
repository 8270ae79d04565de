"""Fairness-auditor, Prometheus-exporter and flight-recorder tests.

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
    MetricsRegistry,
    TraceEvent,
    TraceSession,
    Tracer,
    event_counts,
    prometheus_text,
    trace_session,
    write_flight_recorder,
)
from repro.obs.exporters import flight_payload

from reference.flight_ring import FlightRing


# Sinks receive tracer rows (repro.obs.events); these build them.


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


class TestLagMonitor:
    def make(self):
        # Two tenants at capacity 2.0 -> fair rate 1.0, so lag in
        # service units reads directly as seconds.
        return FairnessAuditor(AuditConfig(capacity=2.0, lag_threshold_seconds=0.25))

    def test_trips_above_threshold_and_clears_with_hysteresis(self):
        auditor = self.make()
        auditor.on_sample(1.0, {"A": 0.0, "B": 1.0}, {"A": 0.5, "B": 0.5})
        assert auditor.tripped_tenants("lag") == ["A"]
        # 0.2 s of lag is below the 0.25 s trip threshold but above the
        # 0.125 s clear threshold: the trip must hold (no flapping).
        auditor.on_sample(2.0, {"A": 1.0, "B": 2.0}, {"A": 1.2, "B": 1.0})
        assert auditor.tripped_tenants("lag") == ["A"]
        auditor.on_sample(3.0, {"A": 3.0, "B": 3.0}, {"A": 3.0, "B": 3.0})
        assert auditor.tripped_tenants("lag") == []
        assert auditor.ever_tripped("lag") == ["A"]
        tripped_flags = [e["tripped"] for e in auditor.trips if e["tenant"] == "A"]
        assert tripped_flags == [True, False]

    def test_trip_record_carries_lag_and_threshold(self):
        auditor = self.make()
        auditor.on_sample(1.0, {"A": 0.0, "B": 1.0}, {"A": 0.5, "B": 0.5})
        (entry,) = auditor.trips
        assert entry["monitor"] == "lag"
        assert entry["lag_seconds"] == pytest.approx(0.5)
        assert entry["threshold"] == 0.25
        assert entry["t"] == 1.0

    def test_without_capacity_the_lag_monitor_is_inert(self):
        auditor = FairnessAuditor(AuditConfig(capacity=None))
        auditor.on_sample(1.0, {"A": 0.0}, {"A": 100.0})
        assert auditor.trips == []


class TestBurstyMonitor:
    CFG = AuditConfig(
        capacity=4.0,
        lag_threshold_seconds=1e9,  # isolate the bursty monitor
        burst_window=4,
        burst_cov_threshold=1.0,
        burst_consecutive=2,
    )

    def backlog(self, auditor, tenant, n=20):
        for i in range(n):
            auditor.on_event(enqueue_event(0.0, tenant, i))

    def feed(self, auditor, deltas, start_t=0.0):
        total, t = 0.0, start_t
        auditor.on_sample(t, {"A": total}, {"A": total})
        for delta in deltas:
            t += 1.0
            total += delta
            auditor.on_sample(t, {"A": total}, {"A": total})
        return t

    def test_on_off_service_to_a_backlogged_tenant_trips(self):
        auditor = FairnessAuditor(self.CFG)
        self.backlog(auditor, "A")
        # Served in bursts: the whole fair share in one interval out of
        # four.  Window [4,0,0,0]: CoV = sqrt(3) ~ 1.73 > 1.0.
        self.feed(auditor, [4, 0, 0, 0, 4, 0, 0, 0, 4])
        assert auditor.ever_tripped("bursty") == ["A"]
        trip = next(e for e in auditor.trips if e["monitor"] == "bursty")
        assert trip["tripped"] is True
        assert trip["cov"] == pytest.approx(3.0**0.5)
        assert trip["window"] == 4

    def test_smooth_service_never_trips(self):
        auditor = FairnessAuditor(self.CFG)
        self.backlog(auditor, "A")
        self.feed(auditor, [1.0] * 12)
        assert auditor.ever_tripped("bursty") == []

    def test_trip_clears_once_service_smooths_out(self):
        auditor = FairnessAuditor(self.CFG)
        self.backlog(auditor, "A")
        t = self.feed(auditor, [4, 0, 0, 0, 4, 0, 0, 0, 4])
        assert auditor.tripped_tenants("bursty") == ["A"]
        total = auditor._tenants["A"].last_actual
        for _ in range(6):
            t += 1.0
            total += 1.0
            auditor.on_sample(t, {"A": total}, {"A": total})
        assert auditor.tripped_tenants("bursty") == []
        clear = [e for e in auditor.trips if e["monitor"] == "bursty"][-1]
        assert clear["tripped"] is False

    def test_idle_tenant_is_gated_out(self):
        """Bursty *arrivals* are not bursty *allocations*: with no
        enqueue events the tenant is never backlogged and the same
        on/off service pattern must not trip."""
        auditor = FairnessAuditor(self.CFG)
        self.feed(auditor, [4, 0, 0, 0, 4, 0, 0, 0, 4])
        assert auditor.ever_tripped("bursty") == []

    def test_draining_the_queue_resets_the_window(self):
        auditor = FairnessAuditor(self.CFG)
        auditor.on_event(enqueue_event(0.0, "A", 0))
        auditor.on_event(dispatch_event(0.0, "A", 0))  # queue empty again
        self.feed(auditor, [4, 0, 0, 0, 4, 0, 0, 0, 4])
        assert auditor.ever_tripped("bursty") == []


class TestEstimatorDriftMonitor:
    CFG = AuditConfig(drift_min_observations=3, drift_alpha=0.5, drift_threshold=0.5)

    def test_persistent_miscarge_trips_then_accuracy_clears(self):
        auditor = FairnessAuditor(self.CFG)
        # |2 - 1|/1 = 1.0 relative error; EWMA -> 0.5, 0.75, 0.875.
        for i in range(3):
            auditor.on_event(complete_event(float(i), "B", actual=1.0, charged=2.0))
        report = auditor.report()["monitors"]["estimator_drift"]
        assert report["tripped"] is True
        assert report["observations"] == 3
        assert report["ewma"] == pytest.approx(0.875)
        # Accurate charging decays the EWMA below threshold/2 -> clears.
        for i in range(3, 6):
            auditor.on_event(complete_event(float(i), "B", actual=1.0, charged=1.0))
        assert auditor.report()["monitors"]["estimator_drift"]["tripped"] is False
        flags = [
            e["tripped"] for e in auditor.trips if e["monitor"] == "estimator_drift"
        ]
        assert flags == [True, False]
        # Drift is a run-wide monitor, not per-tenant.
        assert all(
            e["tenant"] is None
            for e in auditor.trips
            if e["monitor"] == "estimator_drift"
        )

    def test_needs_minimum_observations(self):
        auditor = FairnessAuditor(self.CFG)
        auditor.on_event(complete_event(0.0, "B", actual=1.0, charged=5.0))
        assert auditor.trips == []

    def test_zero_actual_completions_are_skipped(self):
        auditor = FairnessAuditor(self.CFG)
        for i in range(10):
            auditor.on_event(complete_event(float(i), "B", actual=0.0, charged=1.0))
        assert auditor.report()["monitors"]["estimator_drift"]["observations"] == 0


class TestTracerIntegration:
    def test_sink_responses_are_stored_after_their_cause(self):
        """A drift trip is emitted by the auditor sink while the tracer
        handles the ``complete`` that caused it; the tracer's store, and
        so the flight-recorder dump folded from it, must hold them in
        causal order."""
        tracer = Tracer("drift")
        auditor = FairnessAuditor(
            AuditConfig(drift_min_observations=1, drift_threshold=0.05), tracer
        )
        tracer.add_sink(auditor.on_event)
        tracer.complete(
            1.0, 1.0, "B", seqno=0, api="x", actual=1.0, charged=5.0,
            start_tag_after=0.0, running=0,
        )
        assert [e.kind for e in tracer.events] == ["complete", "audit"]
        tracer.fault(2.0, "worker_crash", worker=0)
        (dump,) = flight_payload(tracer.rows, 16)["dumps"]
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
        auditor = FairnessAuditor(
            AuditConfig(capacity=2.0, lag_threshold_seconds=0.25), tracer
        )
        tracer.add_sink(auditor.on_event)  # audit events come back through
        auditor.on_sample(1.0, {"A": 0.0, "B": 1.0}, {"A": 0.5, "B": 0.5})
        (event,) = tracer.of_kind("audit")
        assert event.tenant == "A"
        assert event.data["monitor"] == "lag"
        assert event.data["tripped"] is True
        assert event_counts(tracer.rows)["audit.lag"] == 1
        registry = tracer.registry
        assert registry.gauge("audit.samples").value == 1.0
        assert registry.gauge("audit.tenants_lagging").value == 1.0
        assert registry.gauge("audit.tenants_bursty").value == 0.0

    def test_report_is_json_ready(self):
        auditor = FairnessAuditor(AuditConfig(capacity=2.0))
        auditor.on_sample(1.0, {"A": 0.0, "B": 1.0}, {"A": 0.5, "B": 0.5})
        payload = json.dumps(auditor.report())
        assert "monitors" in payload


class TestPrometheusText:
    def fake_registry(self):
        times = iter([1.0, 1.5])
        registry = MetricsRegistry(clock=lambda: next(times))
        registry.counter("scheduler.dispatches").inc(3)
        registry.gauge("audit.samples").set(12.0)
        timer = registry.timer("scheduler.phase.select")
        timer.start()
        timer.stop()
        return registry

    def test_pinned_output(self):
        text = prometheus_text(self.fake_registry(), labels={"run": "fig9--wfq"})
        assert text == (
            "# TYPE repro_audit_samples gauge\n"
            'repro_audit_samples{run="fig9--wfq"} 12\n'
            "# TYPE repro_scheduler_dispatches counter\n"
            'repro_scheduler_dispatches{run="fig9--wfq"} 3\n'
            "# TYPE repro_scheduler_phase_select_count counter\n"
            'repro_scheduler_phase_select_count{run="fig9--wfq"} 1\n'
            "# TYPE repro_scheduler_phase_select_seconds_total counter\n"
            'repro_scheduler_phase_select_seconds_total{run="fig9--wfq"} 0.5\n'
        )

    def test_every_line_parses_as_exposition_format(self):
        for line in prometheus_text(self.fake_registry()).splitlines():
            if line.startswith("# TYPE"):
                _, _, metric, prom_type = line.split()
                assert prom_type in {"counter", "gauge"}
            else:
                metric, value = line.split()
                float(value)
            assert metric.replace("_", "a").isidentifier()

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_invalid_leading_character_is_escaped(self):
        registry = MetricsRegistry()
        registry.counter("2dfq.hit-rate").inc()
        text = prometheus_text(registry, namespace="")
        assert "_2dfq_hit_rate 1" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        text = prometheus_text(registry, labels={"run": 'a"b\\c'})
        assert '{run="a\\"b\\\\c"}' in text


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
        """A sink (the old ring, kept as the reference) still sees every
        row past ``max_events``; the fold covers the retained rows only,
        and ``dropped_events`` counts the rest."""
        tracer = Tracer("t", max_events=1)
        ring = FlightRing(capacity=8)
        tracer.add_sink(ring.on_event)
        tracer.vt_update(0.0, 0.0, None, reason="a")
        tracer.vt_update(1.0, 1.0, None, reason="b")
        tracer.fault(2.0, "worker_crash", worker=0)
        assert len(tracer) == 1  # tracer itself capped
        assert tracer.dropped_events == 2
        assert ring.events_seen == 3
        (dump,) = ring.dumps
        assert len(dump["ring"]) == 3
        # The trigger was dropped, so the fold has nothing to dump.
        assert flight_payload(tracer.rows, 8) is None


class TestAuditedSessionArtifacts:
    def test_export_run_writes_audit_artifacts(self, tmp_path):
        session = TraceSession(tmp_path, audit=AuditConfig(capacity=2.0))
        tracer = session.tracer("fig9 (wfq)")
        auditor = FairnessAuditor(session.audit, tracer)
        auditor.on_sample(1.0, {"A": 0.0, "B": 1.0}, {"A": 0.5, "B": 0.5})
        tracer.fault(2.0, "worker_crash", worker=1)
        run_dir = session.export_run(tracer, auditor=auditor)
        report = json.loads((run_dir / "audit_report.json").read_text())
        assert report["monitors"]["lag"]["ever_tripped"] == ["A"]
        prom = (run_dir / "metrics.prom").read_text()
        assert f'run="{tracer.name}"' in prom
        assert "repro_audit_samples" in prom
        assert f'repro_faults_worker_crash{{run="{tracer.name}"}} 1' in prom
        flight_payload = json.loads((run_dir / "flight_recorder.json").read_text())
        assert len(flight_payload["dumps"]) == 1

    def test_flight_artifact_omitted_without_dumps(self, tmp_path):
        session = TraceSession(tmp_path, audit=AuditConfig(capacity=2.0))
        tracer = session.tracer("quiet")
        auditor = FairnessAuditor(session.audit, tracer)
        run_dir = session.export_run(tracer, auditor=auditor)
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
            tracer = Tracer(f"fig9-audit-{name}", max_events=100)
            auditor = FairnessAuditor(AuditConfig(capacity=config.capacity), tracer)
            run_single(name, specs, config, trace=trace, tracer=tracer, auditor=auditor)
            flagged[name] = auditor.ever_tripped("bursty")
        assert flagged["wfq"], "WFQ must flag bursty allocations"
        assert flagged["wf2q"], "WF²Q must flag bursty allocations"
        assert flagged["2dfq"] == [], "2DFQ must stay quiet"
        # WFQ's starvation bursts are broader than WF²Q's per-request
        # oscillation: it should flag at least as many tenants.
        assert len(flagged["wfq"]) >= len(flagged["wf2q"])
