"""The ``json.dumps`` export writers, kept as the oracle of the row encoders.

``repro.obs.exporters`` encodes ``events.jsonl`` and ``chrome_trace.json``
straight from the tracer's rows, by column.  These are the writers it
replaced: one ``json.dumps`` per event and one dict per Chrome event.
``tests/test_obs_exporters.py`` requires ``write_rows_jsonl`` and
``write_chrome_trace`` to write their bytes.

The occupancy fold, the metadata events, the process numbering and the
per-event counter and instant records are shared with the package: they
define *what* is exported, and these writers only pin *how* it is
encoded.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.obs.events import Row, occupancies, row_as_dict
from repro.obs.exporters import _US, _chrome_head, _pid, _slice_name, _trace_records


def write_events_jsonl(events: Iterable[Any], path: Union[str, Path]) -> Path:
    """Write trace events (or plain dicts) as one JSON object per line:
    one ``json.dumps`` per event."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for event in events:
            record = event.as_dict() if hasattr(event, "as_dict") else event
            fh.write(json.dumps(record) + "\n")
    return path


def chrome_trace_events(
    rows: Sequence[Row], process_name: str = "repro"
) -> List[Dict[str, Any]]:
    """Build the Chrome ``traceEvents`` list, one dict per Chrome event.

    Every occupancy of the rows becomes a complete (``"ph": "X"``)
    slice, one timeline row per worker thread of each server process.
    The rows also contribute ``virtual_time`` and ``backlog`` counter
    tracks sampled at every dispatch (in the dispatching server's
    process), plus process-scoped instant events (``"ph": "i"``) for the
    exceptional kinds -- ``cancel``, ``fault``, ``invariant``, ``audit``
    -- colored by tenant (``cname``) with the full event payload in
    ``args``.
    """
    tenure = occupancies(rows)
    out = _chrome_head(tenure, process_name)
    for occ in tenure:
        out.append(
            {
                "name": _slice_name(occ.tenant, occ.api),
                "cat": "request",
                "ph": "X",
                "ts": occ.start * _US,
                "dur": max(0.0, occ.end - occ.start) * _US,
                "pid": _pid(occ.server),
                "tid": occ.thread,
                "args": {"tenant": occ.tenant, "cost": occ.cost},
            }
        )
    pids = {occ.row: _pid(occ.server) for occ in tenure}
    for index, row in enumerate(rows):
        out.extend(_trace_records(row_as_dict(row), pids.get(index, 1)))
    return out
