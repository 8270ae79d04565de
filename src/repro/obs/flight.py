"""Bounded flight recorder: the last K events, dumped on trouble.

Long runs cannot retain their full event stream, but the events that
*explain a failure* are almost always the ones immediately before it.
A :class:`FlightRecorder` is a tracer sink holding a ring buffer of the
last ``capacity`` event rows (flattened to dicts only when dumped);
whenever a trigger event arrives -- a ``fault`` from the
:class:`~repro.faults.injector.FaultInjector` or an ``invariant`` from
the :mod:`repro.validate` watchdog -- it snapshots the ring into a dump.
The watchdog emits its ``invariant`` event *before* raising in strict
mode, so the dump exists even when the run aborts; the session exporter
writes any dumps as ``flight_recorder.json`` alongside the manifest.

Dumps are capped (``max_dumps``) so a fault storm cannot blow memory;
suppressed dumps are counted, never silently ignored.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Tuple, Union

import json

from .events import FAULT, INVARIANT, Row, row_as_dict

__all__ = ["FlightRecorder"]


class FlightRecorder:
    """Ring buffer of recent trace events with trigger-driven dumps."""

    def __init__(
        self,
        capacity: int = 2048,
        trigger_kinds: Tuple[str, ...] = (FAULT, INVARIANT),
        max_dumps: int = 4,
    ) -> None:
        self.capacity = capacity
        self.trigger_kinds = trigger_kinds
        self.max_dumps = max_dumps
        self.events_seen = 0
        self.suppressed_dumps = 0
        self._ring: Deque[Row] = deque(maxlen=capacity)
        #: Completed dumps, oldest first.
        self.dumps: List[Dict[str, Any]] = []

    def on_event(self, row: Row) -> None:
        """Tracer sink: record the row; dump if it is a trigger."""
        self._ring.append(row)
        self.events_seen += 1
        if row[0] in self.trigger_kinds:
            self._dump(row)

    def _dump(self, trigger: Row) -> None:
        if len(self.dumps) >= self.max_dumps:
            self.suppressed_dumps += 1
            return
        self.dumps.append(
            {
                "trigger": row_as_dict(trigger),
                "events_seen": self.events_seen,
                "ring": [row_as_dict(row) for row in self._ring],
            }
        )

    def payload(self) -> Dict[str, Any]:
        """JSON-ready artifact body (written only when dumps exist)."""
        return {
            "capacity": self.capacity,
            "trigger_kinds": list(self.trigger_kinds),
            "events_seen": self.events_seen,
            "suppressed_dumps": self.suppressed_dumps,
            "dumps": self.dumps,
        }

    def write(self, path: Union[str, Path]) -> Path:
        """Write :meth:`payload` to ``path`` and return it."""
        target = Path(path)
        with target.open("w") as fh:
            json.dump(self.payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return target

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(capacity={self.capacity}, seen={self.events_seen}, "
            f"dumps={len(self.dumps)})"
        )
