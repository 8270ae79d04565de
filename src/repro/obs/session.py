"""Trace sessions: wire tracing through the experiment harness.

A :class:`TraceSession` owns an output directory and hands out one
:class:`~repro.obs.tracer.Tracer` per run.  The experiment runner
(:func:`repro.experiments.runner.run_single`) and the worked-example
sequencer consult the *active* session -- set with the
:func:`trace_session` context manager, which is what the figures CLI's
``--trace`` flag uses -- so every run they execute while a session is
active automatically lands on disk as::

    <dir>/<run-label>/events.jsonl        decision event stream
    <dir>/<run-label>/chrome_trace.json   thread occupancy (chrome://tracing)
    <dir>/<run-label>/manifest.json       seed / config / versions / git SHA
    <dir>/<run-label>/flight_recorder.json  (only when a trigger row exists)

An *audited* session (``audit=AuditConfig()``, the CLI's ``--audit``)
folds a :class:`~repro.obs.audit.FairnessAuditor` over the rows and
samples of every run that recorded samples (``run_single``'s): its
``audit`` rows join the event stream and the Chrome trace, its gauges
join the manifest's ``counters``, and it exports one more file::

    <dir>/<run-label>/audit_report.json   monitor state + trip log

The session is process-global and experiments are single-threaded (the
simulator is a discrete-event loop), so a plain module global suffices.

The experiment runners (:func:`repro.experiments.runner.run_single`,
:func:`repro.experiments.fleet.run_fleet`, and the worked examples) set
up their run's tracer and export through one :class:`RunTelemetry`,
which also exports a run that raises.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from ..errors import ConfigurationError
from .audit import AuditConfig, FairnessAuditor
from .events import Row, event_counts
from .exporters import (
    write_chrome_trace,
    write_flight_recorder,
    write_manifest,
    write_rows_jsonl,
)
from .tracer import Tracer, check_max_events

__all__ = [
    "RunTelemetry",
    "TraceSession",
    "trace_session",
    "current_session",
    "clear_session",
]

_ACTIVE: Optional["TraceSession"] = None


def current_session() -> Optional["TraceSession"]:
    """The active trace session, or ``None`` when tracing is off."""
    return _ACTIVE


def clear_session() -> None:
    """Deactivate any active session (tracing off until re-entered).

    Pool workers of :mod:`repro.parallel.engine` call this from their
    initializer: a session inherited through ``fork`` must never write
    artifacts from a worker (DESIGN.md §10), so workers always run with
    tracing disabled.
    """
    global _ACTIVE
    _ACTIVE = None


class TraceSession:
    """Collects the traced runs of one CLI/harness invocation."""

    def __init__(
        self,
        directory: Union[str, Path],
        max_events: Optional[int] = 1_000_000,
        audit: Optional[AuditConfig] = None,
        flight_events: int = 2048,
    ) -> None:
        check_max_events(max_events)
        if flight_events < 1:
            raise ConfigurationError(
                f"flight_events must be >= 1, got {flight_events}"
            )
        self.directory = Path(directory)
        self.max_events = max_events
        #: Non-``None`` makes this an audited session: :meth:`export_run`
        #: audits each run with samples under this config.
        self.audit = audit
        #: Rows per flight-recorder dump; at least 1, so each dump's
        #: ring holds its trigger row.
        self.flight_events = flight_events
        self.runs: List[str] = []
        #: Quarantined-cell error records (JSON-ready), in failure order.
        self.errors: List[Dict[str, Any]] = []

    def tracer(self, label: str) -> Tracer:
        """A fresh tracer for one run."""
        return Tracer(self._slug(label), max_events=self.max_events)

    def export_run(
        self,
        tracer: Tracer,
        *,
        seed: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        scheduler: Optional[Dict[str, Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write one run's artifacts; returns the run directory.  An
        audited run's ``audit`` rows are merged into the rows written;
        the per-kind counts and flight dumps are folds of those rows
        (``trace.dropped_events`` counts the rows not retained)."""
        rows: List[Row] = tracer.rows
        report: Optional[Dict[str, Any]] = None
        if self.audit is not None and tracer.samples:
            audit_config = self.audit
            if audit_config.capacity is None and config and "thread_rate" in config:
                # ExperimentConfig.capacity
                capacity = config["num_threads"] * config["thread_rate"]
                audit_config = dataclasses.replace(audit_config, capacity=capacity)
            audit = FairnessAuditor(audit_config).fold(
                rows, tracer.samples, tracer.dropped_events
            )
            rows, report = audit.merged(rows), audit.report
            for name, value in audit.gauges.items():
                tracer.registry.gauge(name).set(value)
            summary: Dict[str, Any] = {"trips": len(report["trips"])}
            for monitor in ("lag", "bursty"):
                summary[monitor] = report["monitors"][monitor]["ever_tripped"]
            extra = dict(extra or {}, audit=summary)
        run_dir = self._unique_dir(tracer.name)
        write_rows_jsonl(rows, run_dir / "events.jsonl")
        write_chrome_trace(
            rows,
            run_dir / "chrome_trace.json",
            process_name=tracer.name,
            metadata={"run": tracer.name},
        )
        counters = tracer.registry.snapshot()
        counters.update(event_counts(rows))
        counters["trace.events"] = len(rows)
        counters["trace.dropped_events"] = tracer.dropped_events
        if report is not None:
            with (run_dir / "audit_report.json").open("w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        write_flight_recorder(
            rows, run_dir / "flight_recorder.json", self.flight_events
        )
        write_manifest(
            run_dir / "manifest.json",
            name=tracer.name,
            seed=seed,
            config=config,
            scheduler=scheduler,
            counters=counters,
            extra=extra,
        )
        self.runs.append(run_dir.name)
        return run_dir

    def export_cached_run(
        self,
        label: str,
        *,
        key: str,
        cell: Any = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Record a run served from the content-addressed cache.

        No simulation executed, so there are no events or occupancy to
        export; honesty demands the provenance record say exactly that.
        The run directory gets a ``manifest.json`` whose ``cache`` block
        carries the hit status and the content key, and (when the cell
        exposes them) the config/seed the cached result corresponds to.
        """
        run_dir = self._unique_dir(self._slug(f"{label}--cached"))
        config = getattr(cell, "config", None)
        manifest_extra: Dict[str, Any] = {
            "cache": {"status": "hit", "key": key}
        }
        if extra:
            manifest_extra.update(extra)
        write_manifest(
            run_dir / "manifest.json",
            name=run_dir.name,
            seed=getattr(config, "seed", None),
            config=dataclasses.asdict(config)
            if dataclasses.is_dataclass(config) and not isinstance(config, type)
            else None,
            extra=manifest_extra,
        )
        self.runs.append(run_dir.name)
        return run_dir

    def export_failed_cell(self, failure: Any, *, cell: Any = None) -> Path:
        """Record a quarantined cell (see :mod:`repro.parallel.engine`).

        The failed run's directory gets a ``manifest.json`` whose
        ``errors`` block carries the failure record -- cell index, label,
        exception type and message -- so a degraded suite leaves an
        attributable paper trail next to its successful runs.
        """
        record = failure.as_dict() if hasattr(failure, "as_dict") else dict(failure)
        run_dir = self._unique_dir(self._slug(f"{record.get('label', 'cell')}--failed"))
        config = getattr(cell, "config", None)
        write_manifest(
            run_dir / "manifest.json",
            name=run_dir.name,
            seed=getattr(config, "seed", None),
            config=dataclasses.asdict(config)
            if dataclasses.is_dataclass(config) and not isinstance(config, type)
            else None,
            extra={"errors": [record]},
        )
        self.errors.append(record)
        self.runs.append(run_dir.name)
        return run_dir

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _slug(label: str) -> str:
        return re.sub(r"[^A-Za-z0-9._+-]+", "-", label).strip("-") or "run"

    def _unique_dir(self, name: str) -> Path:
        run_dir = self.directory / name
        suffix = 1
        while run_dir.exists():
            suffix += 1
            run_dir = self.directory / f"{name}-{suffix}"
        run_dir.mkdir(parents=True)
        return run_dir


class RunTelemetry:
    """The observability setup of one experiment run.

    Inside an active session the run gets a session tracer labelled
    ``label``; an explicit ``tracer`` is used as given, and its caller
    owns the export.

    Wrap the run in :meth:`exporting_aborts` and call :meth:`export`
    after it.  Both take ``manifest``, a callable returning the
    :meth:`TraceSession.export_run` keywords (``seed``, ``config``,
    ``extra``, ...), called only inside a session.
    """

    def __init__(self, label: str, tracer: Optional[Tracer] = None) -> None:
        self.session = current_session() if tracer is None else None
        if self.session is not None:
            tracer = self.session.tracer(label)
        #: The run's tracer, or ``None`` when the run is untraced.
        self.tracer = tracer

    @contextlib.contextmanager
    def exporting_aborts(
        self, manifest: Callable[[], Dict[str, Any]]
    ) -> Iterator[None]:
        """Run the block; if it raises, export what the run produced --
        most importantly the flight-recorder dump of the watchdog's
        invariant event -- with an ``aborted`` manifest block, then
        re-raise."""
        try:
            yield
        except Exception as exc:
            self.export(manifest, aborted=exc)
            raise

    def export(
        self,
        manifest: Callable[[], Dict[str, Any]],
        *,
        aborted: Optional[Exception] = None,
    ) -> None:
        """Write the run's artifacts (a no-op outside a session)."""
        if self.session is None or self.tracer is None:
            return
        fields = manifest()
        if aborted is not None:
            fields["extra"] = dict(
                fields.get("extra") or {},
                aborted={"type": type(aborted).__name__, "message": str(aborted)},
            )
        self.session.export_run(self.tracer, **fields)


@contextlib.contextmanager
def trace_session(
    directory: Union[str, Path],
    max_events: Optional[int] = 1_000_000,
    audit: Optional[AuditConfig] = None,
    flight_events: int = 2048,
) -> Iterator[TraceSession]:
    """Activate a :class:`TraceSession` for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    session = TraceSession(
        directory, max_events=max_events, audit=audit, flight_events=flight_events
    )
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous
