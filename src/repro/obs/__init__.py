"""Observability: scheduler-decision tracing, counters, and exporters.

The paper's claims are about scheduler *decisions* -- which tenant won a
thread and why (tags, eligibility, stagger, estimates).  This package
makes those decisions observable without perturbing them:

* :class:`Tracer` -- typed decision events (:mod:`repro.obs.events`)
  emitted by the instrumented schedulers, estimators and simulator and
  stored as one list of row tuples, plus the collector's samples: the
  run's one record; a single ``is not None`` guard when untraced (see
  the overhead contract in :mod:`repro.obs.tracer`);
* :class:`MetricsRegistry` -- named counters and gauges with a
  snapshot API (:mod:`repro.obs.registry`) that feeds the manifest's
  ``counters``;
* exporters (:mod:`repro.obs.exporters`) -- JSONL event streams, Chrome
  trace / Perfetto occupancy timelines, flight-recorder dumps and
  per-run ``manifest.json`` provenance records with per-kind counts
  (:func:`repro.obs.events.event_counts`), all derived from the rows at
  export;
* :class:`TraceSession` (:mod:`repro.obs.session`) -- the glue that the
  experiment runner and the ``--trace`` CLI flag use to write these
  artifacts per run.

On top of the raw event stream sits one derivation layer, the fairness
audit (:mod:`repro.obs.audit`): lag / bursty-allocation /
estimator-drift monitors folded from a run's rows and samples at export
into ``audit`` events and ``audit_report.json``.  The figures CLI's
``--audit DIR`` enables it per run.

Quickstart::

    from repro.obs import Tracer

    tracer = Tracer("demo")
    scheduler.attach_tracer(tracer)
    scheduler.estimator.attach_tracer(tracer)
    ... run ...
    tracer.of_kind("select")          # decision events
    event_counts(tracer.rows)         # per-kind counts

or, end to end: ``python -m repro.figures fig06 --trace traces/``.
"""

from .audit import AuditConfig, FairnessAuditor
from .events import EVENT_KINDS, TraceEvent, event_counts
from .exporters import (
    build_manifest,
    write_chrome_trace,
    write_flight_recorder,
    write_manifest,
    write_rows_jsonl,
)
from .registry import HOST_CLOCK, ClockFn, Counter, Gauge, MetricsRegistry, Timer
from .session import TraceSession, clear_session, current_session, trace_session
from .tracer import Tracer

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "event_counts",
    "Tracer",
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "ClockFn",
    "HOST_CLOCK",
    "TraceSession",
    "trace_session",
    "current_session",
    "clear_session",
    "build_manifest",
    "write_chrome_trace",
    "write_flight_recorder",
    "write_rows_jsonl",
    "write_manifest",
    "AuditConfig",
    "FairnessAuditor",
]
