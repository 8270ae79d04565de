"""Fairness audit: a fold of one run's record.

Where the event stream and the Chrome trace show where a request's
latency went, the audit asks whether the schedule was fair.  A
:class:`FairnessAuditor` walks a run's record once, in order: the
tracer's rows and the collector's per-tenant actual-vs-GPS service
samples (``Tracer.samples``, each stamped with the rows stored before
it).  It keeps three monitors:

``lag``
    Per-tenant service lag behind the GPS fluid reference, normalised to
    seconds at the tenant's fair rate.  A tenant more than
    ``lag_threshold_seconds`` behind trips the monitor; hysteresis (the
    clear threshold is half the trip threshold) stops flapping.

``bursty``
    The Fig-5/9 oscillation detector.  Per tenant, the service received
    in each sample interval goes into a sliding window, *gated on the
    tenant being continuously backlogged* (an open-loop tenant that
    simply has nothing queued is idle, not mistreated).  A backlogged
    tenant served in on/off bursts shows high window variance; the
    monitor trips when the coefficient of variation (std/mean) exceeds
    ``burst_cov_threshold`` for ``burst_consecutive`` windows in a row.
    Under 2DFQ small requests get smooth allocations and the CoV stays
    low; under WFQ/WF²Q the same workload oscillates (paper Figs 5, 9).

``estimator_drift``
    For 2DFQ^E: an exponentially-weighted mean of the relative charge
    error ``|charged - actual| / actual`` from ``complete`` rows.
    Persistent drift above ``drift_threshold`` means the pessimistic
    estimator is systematically mis-charging and the schedule no longer
    reflects real costs.

Each trip/clear becomes an ``audit`` row, placed among the run's rows:
a drift trip directly after the ``complete`` row that caused it, a
sample's trips at the sample's row index (after every row stored before
the sample) in tenant order.  ``TraceSession.export_run`` writes the
merged rows, so every exported artifact comes from one list.  A tracer
that overflowed ``max_events`` is audited over its retained rows only.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Deque, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .events import AUDIT, CANCEL, COMPLETE, DISPATCH, ENQUEUE, Row
from .events import payload_reader, row_field
from .tracer import Sample, _open_row

__all__ = ["Audit", "AuditConfig", "FairnessAuditor"]

#: Stands in for a payload field a row does not carry.
_ABSENT = object()
_COMPLETE_FIELDS = ("actual", "charged")


@dataclass
class AuditConfig:
    """Thresholds for the monitors; a value that would break or silence
    one raises ``ValueError`` naming the field.

    ``capacity`` (total service rate, threads x rate) is needed to turn
    shortfalls against GPS service into seconds of lag; leave it ``None``
    to have an audited session fill it from the experiment config.
    """

    capacity: Optional[float] = None
    # -- lag monitor --
    lag_threshold_seconds: float = 0.25
    # -- bursty monitor --
    burst_window: int = 10
    burst_cov_threshold: float = 1.0
    burst_consecutive: int = 3
    # -- estimator-drift monitor --
    drift_threshold: float = 0.5
    drift_min_observations: int = 50
    drift_alpha: float = 0.05

    def __post_init__(self) -> None:
        positive = ["lag_threshold_seconds", "burst_cov_threshold", "drift_threshold"]
        if self.capacity is not None:
            positive.append("capacity")
        for name in positive:
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        # A one-sample window has no variance: it could never trip.
        for name, least in (
            ("burst_window", 2),
            ("burst_consecutive", 1),
            ("drift_min_observations", 0),
        ):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        # At 0 the EWMA never moves; above 1 it overshoots and diverges.
        alpha = self.drift_alpha
        if not (isinstance(alpha, numbers.Real) and 0.0 < alpha <= 1.0):
            raise ValueError(f"drift_alpha must be in (0, 1], got {alpha!r}")


@dataclass(slots=True)
class _TenantState:
    """Per-tenant monitor state."""

    queued: int = 0
    backlogged_since: Optional[float] = None
    last_actual: float = 0.0
    window: Deque[float] = field(default_factory=deque)
    burst_streak: int = 0
    lag_tripped: bool = False
    bursty_tripped: bool = False


class Audit(NamedTuple):
    """What :meth:`FairnessAuditor.fold` returns.  ``placed`` holds
    ``(position, audit row)`` per trip/clear: the row goes before the
    run's row ``position``."""

    report: Dict[str, Any]
    gauges: Dict[str, float]
    placed: List[Tuple[int, Row]]

    def merged(self, rows: List[Row]) -> List[Row]:
        """``rows`` with the audit rows at their positions (``rows``
        itself when there are none)."""
        if not self.placed:
            return rows
        out: List[Row] = []
        start = 0
        for position, row in self.placed:
            out += rows[start:position]
            out.append(row)
            start = position
        out += rows[start:]
        return out


class FairnessAuditor:
    """The fairness monitors of one run; one auditor folds one run:
    ``FairnessAuditor(config).fold(tracer.rows, tracer.samples)``."""

    def __init__(self, config: Optional[AuditConfig] = None) -> None:
        self.config = config if config is not None else AuditConfig()
        self._tenants: Dict[str, _TenantState] = {}
        self._samples = 0
        self._last_sample_t: Optional[float] = None
        # estimator-drift EWMA over relative charge error, and its value
        # at the last sample (the gauge's, set at samples only)
        self._drift_ewma = 0.0
        self._sampled_ewma = 0.0
        self._drift_observations = 0
        self._drift_tripped = False
        # (position, audit row) per trip/clear, in order, and the
        # position the next one takes.
        self._placed: List[Tuple[int, Row]] = []
        self._position = 0
        # Reader of (actual, charged) for the latest complete row's
        # payload keys (the tracer shares one keys tuple per kind).
        self._complete_keys: Tuple[str, ...] = ()
        self._read_complete = payload_reader((), _COMPLETE_FIELDS, _ABSENT)

    def fold(
        self, rows: List[Row], samples: Iterable[Sample], rows_dropped: int = 0
    ) -> Audit:
        """Walk ``rows`` once, applying each ``(row_index, t, actual,
        gps)`` sample before the row at its index.  ``rows_dropped``
        (the tracer's ``dropped_events``) is reported when nonzero."""
        rest = iter(rows)
        position = 0
        for index, now, actual, gps in samples:
            self._rows(islice(rest, index - position), position)
            position = self._position = index
            self._sample(now, actual, gps)
        self._rows(rest, position)
        report = self.report()
        if rows_dropped:
            report["rows_dropped"] = rows_dropped
        gauges: Dict[str, float] = {}
        if self._samples:
            tenants = self._tenants.values()
            gauges = {
                "audit.samples": float(self._samples),
                "audit.tenants_lagging": float(sum(s.lag_tripped for s in tenants)),
                "audit.tenants_bursty": float(sum(s.bursty_tripped for s in tenants)),
                "audit.estimator_drift_ewma": self._sampled_ewma,
            }
        return Audit(report, gauges, self._placed)

    def _rows(self, rows: Iterable[Row], start: int) -> None:
        """Track backlog membership and charge error over ``rows``, the
        run's rows from index ``start`` on, read by position:
        ``(kind, t, vt, tenant, keys, values)``."""
        for index, row in enumerate(rows, start):
            kind = row[0]
            if kind == ENQUEUE:
                state = self._state(row[3])
                state.queued += 1
                if state.queued == 1:
                    state.backlogged_since = row[1]
            elif kind == DISPATCH or (
                kind == CANCEL and not row_field(row, "was_running", False)
            ):
                # Dispatch removes the request from the queue but the
                # tenant stays backlogged for burst purposes while work
                # is in flight; only an empty queue with nothing new
                # arriving ends the backlogged period, which the sample
                # re-checks.
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
                    self._position = index + 1
                    self._check_drift(row[1])
            # audit/fault/invariant/select/vt_update/estimate: not consumed.

    def _sample(
        self, now: float, actual: Dict[str, float], gps: Dict[str, float]
    ) -> None:
        """One per-tenant service sample (warmup samples included)."""
        self._samples += 1
        interval = (
            now - self._last_sample_t if self._last_sample_t is not None else None
        )
        self._last_sample_t = now
        capacity = self.config.capacity
        fair_rate = capacity / len(actual) if capacity is not None and actual else 0.0
        for tenant in sorted(actual):
            state = self._state(tenant)
            served = actual[tenant]
            delta = served - state.last_actual
            state.last_actual = served
            self._check_lag(now, tenant, state, served, gps.get(tenant, 0.0), fair_rate)
            self._update_burst_window(now, tenant, state, delta, interval)
        self._sampled_ewma = self._drift_ewma

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

    def _record(
        self,
        now: float,
        monitor: str,
        tenant: Optional[str],
        *,
        tripped: bool,
        **fields: Any,
    ) -> None:
        """Place the ``audit`` row of one trip/clear at the current
        position."""
        fields = {"tripped": tripped, **fields}
        row = _open_row(AUDIT, now, None, tenant, "monitor", monitor, fields)
        self._placed.append((self._position, row))

    # -- reporting -------------------------------------------------------------

    @property
    def trips(self) -> List[Dict[str, Any]]:
        """Every trip/clear so far, in order: its row's time, tenant and
        payload."""
        return [
            {"t": row[1], "tenant": row[3], **dict(zip(row[4], row[5]))}
            for _, row in self._placed
        ]

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
        tenants = self._tenants.items()
        lagging = sorted(t for t, s in tenants if s.lag_tripped)
        bursty = sorted(t for t, s in tenants if s.bursty_tripped)
        return {
            "samples": self._samples,
            "monitors": {
                "lag": {
                    "threshold_seconds": self.config.lag_threshold_seconds,
                    "currently_tripped": lagging,
                    "ever_tripped": self.ever_tripped("lag"),
                },
                "bursty": {
                    "window": self.config.burst_window,
                    "cov_threshold": self.config.burst_cov_threshold,
                    "currently_tripped": bursty,
                    "ever_tripped": self.ever_tripped("bursty"),
                },
                "estimator_drift": {
                    "threshold": self.config.drift_threshold,
                    "ewma": self._drift_ewma,
                    "observations": self._drift_observations,
                    "tripped": self._drift_tripped,
                },
            },
            "trips": self.trips,
        }
