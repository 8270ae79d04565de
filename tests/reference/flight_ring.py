"""The flight recorder as a live ring buffer, kept as the oracle of the
export-time fold.

``repro.obs.exporters.flight_payload`` derives the flight-recorder dumps
from a run's retained rows when the run is exported.  This is the
recorder it replaced: a tracer sink holding the last ``capacity`` rows
in a ring, snapshotting the ring whenever a trigger row (``fault`` or
``invariant``) arrives, up to ``max_dumps`` dumps.  Fed the same rows,
its :meth:`FlightRing.payload` must equal the fold's
(``tests/test_obs_derived.py``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Tuple

from repro.obs.events import FAULT, INVARIANT, Row, row_as_dict


class FlightRing:
    """Ring buffer of recent rows with trigger-driven dumps."""

    def __init__(
        self,
        capacity: int,
        trigger_kinds: Tuple[str, ...] = (FAULT, INVARIANT),
        max_dumps: int = 4,
    ) -> None:
        self.capacity = capacity
        self.trigger_kinds = trigger_kinds
        self.max_dumps = max_dumps
        self.events_seen = 0
        self.suppressed_dumps = 0
        self.ring: Deque[Row] = deque(maxlen=capacity)
        self.dumps: List[Dict[str, Any]] = []

    def on_event(self, row: Row) -> None:
        """Tracer sink: record the row; dump if it is a trigger."""
        self.ring.append(row)
        self.events_seen += 1
        if row[0] not in self.trigger_kinds:
            return
        if len(self.dumps) >= self.max_dumps:
            self.suppressed_dumps += 1
            return
        self.dumps.append(
            {
                "trigger": row_as_dict(row),
                "events_seen": self.events_seen,
                "ring": [row_as_dict(r) for r in self.ring],
            }
        )

    def payload(self) -> Dict[str, Any]:
        """The ``flight_recorder.json`` body."""
        return {
            "capacity": self.capacity,
            "trigger_kinds": list(self.trigger_kinds),
            "events_seen": self.events_seen,
            "suppressed_dumps": self.suppressed_dumps,
            "dumps": self.dumps,
        }
