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

An *audited* session (``audit=AuditConfig()``, the CLI's ``--audit``)
additionally attaches a :class:`~repro.obs.audit.FairnessAuditor` and a
:class:`~repro.obs.flight.FlightRecorder` to every run, and exports::

    <dir>/<run-label>/audit_report.json   monitor state + trip log
    <dir>/<run-label>/metrics.prom        Prometheus text-format snapshot
    <dir>/<run-label>/flight_recorder.json  (only when a trigger fired)

The session is process-global and experiments are single-threaded (the
simulator is a discrete-event loop), so a plain module global suffices.

Both experiment runners (:func:`repro.experiments.runner.run_single`
and :func:`repro.experiments.fleet.run_fleet`) set up their run's
tracer, flight recorder and export through one :class:`RunTelemetry`,
which also exports a run that raises.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import re
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from .audit import AuditConfig, FairnessAuditor
from .exporters import write_chrome_trace, write_manifest, write_rows_jsonl
from .flight import FlightRecorder
from .prometheus import write_prometheus
from .tracer import Tracer

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
        self.directory = Path(directory)
        self.max_events = max_events
        #: Non-``None`` makes this an audited session: the runner builds
        #: a :class:`FairnessAuditor` per run from this config.
        self.audit = audit
        #: Ring capacity for the per-run flight recorder.
        self.flight_events = flight_events
        self.runs: List[str] = []
        #: Quarantined-cell error records (JSON-ready), in failure order.
        self.errors: List[Dict[str, Any]] = []

    def tracer(self, label: str) -> Tracer:
        """A fresh enabled tracer for one run."""
        return Tracer(self._slug(label), max_events=self.max_events)

    def export_run(
        self,
        tracer: Tracer,
        *,
        seed: Optional[int] = None,
        config: Optional[Dict[str, Any]] = None,
        scheduler: Optional[Dict[str, Any]] = None,
        extra: Optional[Dict[str, Any]] = None,
        auditor: Optional[FairnessAuditor] = None,
        flight: Optional[FlightRecorder] = None,
    ) -> Path:
        """Write one run's artifacts; returns the run directory."""
        run_dir = self._unique_dir(tracer.name)
        write_rows_jsonl(tracer.rows, run_dir / "events.jsonl")
        write_chrome_trace(
            tracer.rows,
            run_dir / "chrome_trace.json",
            process_name=tracer.name,
            metadata={"run": tracer.name},
        )
        counters = tracer.registry.snapshot()
        counters["trace.events"] = len(tracer.rows)
        counters["trace.dropped_events"] = tracer.dropped_events
        if auditor is not None:
            with (run_dir / "audit_report.json").open("w") as fh:
                json.dump(auditor.report(), fh, indent=2, sort_keys=True)
                fh.write("\n")
            write_prometheus(
                tracer.registry,
                run_dir / "metrics.prom",
                labels={"run": tracer.name},
            )
        if flight is not None and flight.dumps:
            flight.write(run_dir / "flight_recorder.json")
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
    ``label`` and a flight recorder riding the tracer's sink; an
    explicit ``tracer`` is used as given, and its caller owns the
    export.

    Wrap the run in :meth:`exporting_aborts` and call :meth:`export`
    after it.  Both take ``manifest``, a callable returning the
    :meth:`TraceSession.export_run` keywords (``seed``, ``config``,
    ``extra``, ...), called only inside a session.
    """

    def __init__(self, label: str, tracer: Optional[Tracer] = None) -> None:
        self.session = current_session() if tracer is None else None
        if self.session is not None:
            tracer = self.session.tracer(label)
        #: The run's tracer when enabled, else ``None``.
        self.tracer = tracer if tracer is not None and tracer.enabled else None
        self.flight: Optional[FlightRecorder] = None
        if self.tracer is not None and self.session is not None:
            self.flight = FlightRecorder(capacity=self.session.flight_events)
            self.tracer.add_sink(self.flight.on_event)

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
        self.session.export_run(self.tracer, flight=self.flight, **fields)


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
