"""The ``json.dumps`` export writers, kept as the oracle of the row encoders.

``repro.obs.exporters`` encodes ``events.jsonl`` and ``chrome_trace.json``
straight from the tracer's rows and the dispatch log, by column.  These
are the writers it replaced: one ``json.dumps`` per event and one dict
per Chrome event.  ``tests/test_obs_exporters.py`` requires
``write_rows_jsonl`` and ``write_chrome_trace`` to write their bytes.

The dispatch-record normalization, the metadata events and the
per-event counter and instant records are shared with the package:
they define *what* is exported, and these writers only pin *how* it is
encoded.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

from repro.obs.exporters import (
    _US,
    _Slice,
    _process_meta,
    _record_fields,
    _thread_meta,
    _trace_records,
)


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


def _slice(fields: _Slice) -> Dict[str, Any]:
    tid, tenant, name, start, end, cost = fields
    return {
        "name": name,
        "cat": "request",
        "ph": "X",
        "ts": start * _US,
        "dur": max(0.0, end - start) * _US,
        "pid": 1,
        "tid": tid,
        "args": {"tenant": tenant, "cost": cost},
    }


def chrome_trace_events(
    dispatch_log: Iterable[Any],
    trace_events: Iterable[Any] = (),
    process_name: str = "repro",
) -> List[Dict[str, Any]]:
    """Build the Chrome ``traceEvents`` list, one dict per Chrome event.

    ``dispatch_log`` becomes complete (``"ph": "X"``) slices, one
    timeline row per worker thread.  ``trace_events`` (the tracer's
    decision events, optional) contribute ``virtual_time`` and
    ``backlog`` counter tracks sampled at every dispatch, plus
    process-scoped instant events (``"ph": "i"``) for the exceptional
    kinds -- ``cancel``, ``fault``, ``invariant``, ``audit`` -- colored
    by tenant (``cname``) with the full event payload in ``args``.
    """
    slices = [_slice(_record_fields(record)) for record in dispatch_log]
    out = [_process_meta(process_name)]
    out.extend(_thread_meta(sorted({s["tid"] for s in slices})))
    out.extend(slices)
    for event in trace_events:
        record = event.as_dict() if hasattr(event, "as_dict") else event
        out.extend(_trace_records(record))
    return out
