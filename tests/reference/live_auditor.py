"""The fairness auditor as a live tracer sink, kept as the oracle of the
export-time fold.

``repro.obs.audit.FairnessAuditor`` folds a run's trace rows and
collector samples into the audit report when the run is exported.  This
is the auditor it replaced, unchanged: a tracer sink (``on_event``) and
a collector sample hook (``on_sample``) that emit their trips as
``audit`` rows through the tracer they were built with and keep the
``audit.*`` gauges in its registry.  Replayed the same rows and samples
in their recorded order -- each row stored, then handed to
``on_event`` -- its tracer's rows, report and gauges must equal the
fold's (``tests/test_audit_fold.py``).  The tracer has no ``audit``
emitter any more; :class:`LiveTracer` is a tracer with the one this
auditor called.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.audit import AuditConfig
from repro.obs.events import (
    AUDIT,
    CANCEL,
    COMPLETE,
    DISPATCH,
    ENQUEUE,
    Row,
    TraceEvent,
    payload_reader,
    row_field,
)
from repro.obs.tracer import Tracer

#: Stands in for a payload field a row does not carry.
_ABSENT = object()
_COMPLETE_FIELDS = ("actual", "charged")


class LiveTracer(Tracer):
    """A tracer with the ``audit`` emitter the live auditor called."""

    __slots__ = ()

    def audit(
        self,
        t: float,
        monitor: str,
        *,
        vt: Optional[float] = None,
        tenant: Optional[str] = None,
        **fields: Any,
    ) -> None:
        data = {"monitor": monitor, **fields}
        self._record(TraceEvent(AUDIT, t, vt, tenant, data).as_row())


class _TenantState:
    """Per-tenant incremental monitor state."""

    __slots__ = (
        "queued",
        "backlogged_since",
        "last_actual",
        "window",
        "burst_streak",
        "lag_tripped",
        "bursty_tripped",
    )

    def __init__(self) -> None:
        self.queued = 0
        self.backlogged_since: Optional[float] = None
        self.last_actual = 0.0
        self.window: Deque[float] = deque()
        self.burst_streak = 0
        self.lag_tripped = False
        self.bursty_tripped = False


class FairnessAuditor:
    """Streaming fairness monitors over one run.

    Attach with ``tracer.add_sink(auditor.on_event)`` and
    ``collector.attach_auditor(auditor)``; read :meth:`report` at the
    end of the run.  The auditor never raises into the hot path and
    emits its findings as ``audit`` events through the tracer it was
    built with (it ignores those events when they come back through the
    sink).
    """

    def __init__(
        self, config: Optional[AuditConfig] = None, tracer: Optional[Tracer] = None
    ) -> None:
        self.config = config if config is not None else AuditConfig()
        self._tracer = tracer
        self._tenants: Dict[str, _TenantState] = {}
        self._samples = 0
        self._last_sample_t: Optional[float] = None
        # estimator-drift EWMA over relative charge error
        self._drift_ewma = 0.0
        self._drift_observations = 0
        self._drift_tripped = False
        #: Structured record of every trip/clear, in order.
        self.trips: List[Dict[str, Any]] = []
        # Reader of (actual, charged) for the latest complete row's
        # payload keys (the tracer shares one keys tuple per kind).
        self._complete_keys: Tuple[str, ...] = ()
        self._read_complete = payload_reader((), _COMPLETE_FIELDS, _ABSENT)

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Set (or clear) the tracer that receives ``audit`` events and
        ``audit.*`` gauges."""
        self._tracer = tracer

    # -- event sink ------------------------------------------------------------

    def on_event(self, row: Row) -> None:
        """Tracer sink: track backlog membership and charge error.

        Reads the row by position: ``(kind, t, vt, tenant, keys,
        values)`` (see :mod:`repro.obs.events`)."""
        kind = row[0]
        if kind == ENQUEUE:
            state = self._state(row[3])
            state.queued += 1
            if state.queued == 1:
                state.backlogged_since = row[1]
        elif kind == DISPATCH:
            state = self._state(row[3])
            # Dispatch removes the request from the queue but the tenant
            # stays backlogged for burst purposes while work is in
            # flight; only an empty queue with nothing new arriving ends
            # the backlogged period, which the sample hook re-checks.
            if state.queued > 0:
                state.queued -= 1
            if state.queued == 0:
                state.backlogged_since = None
        elif kind == CANCEL:
            if not row_field(row, "was_running", False):
                state = self._state(row[3])
                if state.queued > 0:
                    state.queued -= 1
                if state.queued == 0:
                    state.backlogged_since = None
        elif kind == COMPLETE:
            if row[4] is not self._complete_keys:
                self._complete_keys = row[4]
                self._read_complete = payload_reader(
                    row[4], _COMPLETE_FIELDS, _ABSENT
                )
            actual, charged = self._read_complete(row[5])
            if actual is _ABSENT:
                actual = 0.0
            if charged is _ABSENT:
                charged = actual
            if actual > 0.0:
                rel_error = abs(charged - actual) / actual
                alpha = self.config.drift_alpha
                self._drift_ewma += alpha * (rel_error - self._drift_ewma)
                self._drift_observations += 1
                self._check_drift(row[1])
        # audit/fault/invariant/select/vt_update/estimate: not consumed.

    # -- sample hook -----------------------------------------------------------

    def on_sample(
        self, now: float, actual: Dict[str, float], gps: Dict[str, float]
    ) -> None:
        """Collector hook: one per-tenant service sample (both modes)."""
        self._samples += 1
        interval = (
            now - self._last_sample_t if self._last_sample_t is not None else None
        )
        self._last_sample_t = now
        fair_rate = self._fair_rate(len(actual))
        for tenant in sorted(actual):
            state = self._state(tenant)
            served = actual[tenant]
            delta = served - state.last_actual
            state.last_actual = served
            self._check_lag(now, tenant, state, served, gps.get(tenant, 0.0), fair_rate)
            self._update_burst_window(now, tenant, state, delta, interval)
        self._export_gauges()

    # -- monitors --------------------------------------------------------------

    def _check_lag(
        self,
        now: float,
        tenant: str,
        state: _TenantState,
        served: float,
        gps_service: float,
        fair_rate: float,
    ) -> None:
        if fair_rate <= 0.0:
            return
        lag_seconds = max(0.0, gps_service - served) / fair_rate
        threshold = self.config.lag_threshold_seconds
        if not state.lag_tripped and lag_seconds > threshold:
            state.lag_tripped = True
            self._record(
                now,
                "lag",
                tenant,
                tripped=True,
                lag_seconds=lag_seconds,
                threshold=threshold,
            )
        elif state.lag_tripped and lag_seconds < threshold / 2.0:
            state.lag_tripped = False
            self._record(
                now, "lag", tenant, tripped=False, lag_seconds=lag_seconds
            )

    def _update_burst_window(
        self,
        now: float,
        tenant: str,
        state: _TenantState,
        delta: float,
        interval: Optional[float],
    ) -> None:
        cfg = self.config
        # Gate on the tenant having been backlogged for the whole
        # interval: bursty *arrivals* are the workload's business, only
        # bursty *allocations to a continuously backlogged tenant* are
        # the scheduler's (paper Figs 5, 9).
        backlogged_all_interval = (
            interval is not None
            and state.backlogged_since is not None
            and state.backlogged_since <= now - interval + 1e-12
        )
        if not backlogged_all_interval:
            state.window.clear()
            state.burst_streak = 0
            if state.bursty_tripped:
                state.bursty_tripped = False
                self._record(now, "bursty", tenant, tripped=False, cov=0.0)
            return
        state.window.append(delta)
        if len(state.window) > cfg.burst_window:
            state.window.popleft()
        if len(state.window) < cfg.burst_window:
            return
        mean = sum(state.window) / len(state.window)
        if mean <= 0.0:
            return
        variance = sum((x - mean) ** 2 for x in state.window) / len(state.window)
        cov = math.sqrt(variance) / mean
        if cov > cfg.burst_cov_threshold:
            state.burst_streak += 1
        else:
            state.burst_streak = 0
            if state.bursty_tripped:
                state.bursty_tripped = False
                self._record(now, "bursty", tenant, tripped=False, cov=cov)
        if not state.bursty_tripped and state.burst_streak >= cfg.burst_consecutive:
            state.bursty_tripped = True
            self._record(
                now,
                "bursty",
                tenant,
                tripped=True,
                cov=cov,
                threshold=cfg.burst_cov_threshold,
                window=cfg.burst_window,
            )

    def _check_drift(self, now: float) -> None:
        cfg = self.config
        if self._drift_observations < cfg.drift_min_observations:
            return
        if not self._drift_tripped and self._drift_ewma > cfg.drift_threshold:
            self._drift_tripped = True
            self._record(
                now,
                "estimator_drift",
                None,
                tripped=True,
                ewma=self._drift_ewma,
                threshold=cfg.drift_threshold,
            )
        elif self._drift_tripped and self._drift_ewma < cfg.drift_threshold / 2.0:
            self._drift_tripped = False
            self._record(
                now, "estimator_drift", None, tripped=False, ewma=self._drift_ewma
            )

    # -- plumbing --------------------------------------------------------------

    def _state(self, tenant: Optional[str]) -> _TenantState:
        key = tenant if tenant is not None else "?"
        state = self._tenants.get(key)
        if state is None:
            state = self._tenants[key] = _TenantState()
        return state

    def _fair_rate(self, active_tenants: int) -> float:
        capacity = self.config.capacity
        if capacity is None or active_tenants <= 0:
            return 0.0
        return capacity / active_tenants

    def _record(
        self,
        now: float,
        monitor: str,
        tenant: Optional[str],
        *,
        tripped: bool,
        **fields: Any,
    ) -> None:
        entry: Dict[str, Any] = {
            "t": now,
            "monitor": monitor,
            "tenant": tenant,
            "tripped": tripped,
        }
        entry.update(fields)
        self.trips.append(entry)
        if self._tracer is not None:
            self._tracer.audit(now, monitor, tenant=tenant, tripped=tripped, **fields)

    def _export_gauges(self) -> None:
        if self._tracer is None:
            return
        registry = self._tracer.registry
        registry.gauge("audit.samples").set(float(self._samples))
        registry.gauge("audit.tenants_lagging").set(
            float(sum(1 for s in self._tenants.values() if s.lag_tripped))
        )
        registry.gauge("audit.tenants_bursty").set(
            float(sum(1 for s in self._tenants.values() if s.bursty_tripped))
        )
        registry.gauge("audit.estimator_drift_ewma").set(self._drift_ewma)

    # -- reporting -------------------------------------------------------------

    def tripped_tenants(self, monitor: str) -> List[str]:
        """Tenants whose ``monitor`` is currently tripped (sorted)."""
        if monitor == "lag":
            return sorted(
                t for t, s in self._tenants.items() if s.lag_tripped
            )
        if monitor == "bursty":
            return sorted(
                t for t, s in self._tenants.items() if s.bursty_tripped
            )
        raise ValueError(f"unknown per-tenant monitor {monitor!r}")

    def ever_tripped(self, monitor: str) -> List[str]:
        """Tenants that tripped ``monitor`` at any point (sorted)."""
        seen = {
            entry["tenant"]
            for entry in self.trips
            if entry["monitor"] == monitor
            and entry["tripped"]
            and entry["tenant"] is not None
        }
        return sorted(seen)

    def report(self) -> Dict[str, Any]:
        """JSON-ready summary of the whole run's audit state."""
        return {
            "samples": self._samples,
            "monitors": {
                "lag": {
                    "threshold_seconds": self.config.lag_threshold_seconds,
                    "currently_tripped": self.tripped_tenants("lag"),
                    "ever_tripped": self.ever_tripped("lag"),
                },
                "bursty": {
                    "window": self.config.burst_window,
                    "cov_threshold": self.config.burst_cov_threshold,
                    "currently_tripped": self.tripped_tenants("bursty"),
                    "ever_tripped": self.ever_tripped("bursty"),
                },
                "estimator_drift": {
                    "threshold": self.config.drift_threshold,
                    "ewma": self._drift_ewma,
                    "observations": self._drift_observations,
                    "tripped": self._drift_tripped,
                },
            },
            "trips": list(self.trips),
        }
