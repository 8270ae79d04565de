"""Exporters: JSONL event streams, Chrome traces, and run manifests.

Three durable artifacts per traced run (reproducibility-report practice:
a run that cannot be re-derived from its artifacts is not reproduced):

* ``events.jsonl`` -- the tracer's decision events, one JSON object per
  line, in emission order.  Greppable, diffable, and the format the
  golden-trace tests pin.
* ``chrome_trace.json`` -- the thread-occupancy timeline in the Chrome
  trace-event format, loadable in ``chrome://tracing`` or Perfetto, so
  the schedules behind Figures 8b/9b/11b can be inspected interactively
  (one timeline row per worker thread, one slice per request, virtual
  time and backlog as counter tracks; a fleet run gets one process per
  server).
* ``manifest.json`` -- everything needed to re-run: seed, configuration,
  scheduler parameters, package versions, git SHA, plus the counter
  snapshot of the run.

A run with a ``fault`` or ``invariant`` row also gets
``flight_recorder.json`` (:func:`write_flight_recorder`).

The event artifacts derive from the tracer's rows alone.  A request
slice runs from its ``dispatch`` row to the same seqno's ``complete`` or
``cancel`` row (:func:`~repro.obs.events.occupancies`), so an aborted
request's slice ends where it was aborted.

Encode at export
----------------
The tracer stores rows (:mod:`repro.obs.events`), and the two event
artifacts are encoded straight from them (DESIGN.md §9).  Rows are
grouped by *shape* -- kind, payload keys, which header fields are
present -- and each shape gets one ``%`` template.  The output is
written in chunks of :data:`CHUNK_ROWS` rows, so the encoded text held
at once stays bounded, and each chunk's values are converted column by
column:

* every all-finite float column of every shape goes into one float64
  array per chunk.  One sort of its ``uint64`` bit view gives the
  chunk's distinct floats, ``float.__repr__`` runs once per distinct bit
  pattern, and each shape finds its texts in that table (binary search
  for the index) when it is formatted.  Rows emitted at one instant
  repeat ``t``, ``vt``, tags, estimate and cost, so only about 21% of
  the floats in an audited run's ``events.jsonl`` are distinct.  The
  table is keyed on bits, not floats: ``0.0 == -0.0`` but the two print
  differently;
* strings go through a per-export cache of ``encode_basestring_ascii``,
  ints through ``int.__repr__``, bools as ``true``/``false``;
* anything else -- ``None``, NaN/±inf, mixed columns, containers -- goes
  value by value, through ``json.dumps`` when nothing simpler applies.

The bytes equal ``json.dumps`` of each event's
:meth:`~repro.obs.events.TraceEvent.as_dict` (the test suite keeps the
``json.dumps`` reference writers to compare against), and rows whose
payload keys could reorder the header (a key named ``kind``, ``t``,
``vt`` or ``tenant``) are encoded with ``json.dumps`` directly.

This module depends only on the standard library, numpy and the row
format; it never imports the scheduler or metrics packages.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import platform
import subprocess
import sys
import zlib
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from .events import FAULT, INVARIANT, Occupancy, Row, occupancies, row_as_dict

__all__ = [
    "CHUNK_ROWS",
    "encode_rows_jsonl",
    "write_rows_jsonl",
    "write_chrome_trace",
    "flight_payload",
    "write_flight_recorder",
    "build_manifest",
    "write_manifest",
]

#: Rows (or occupancies) encoded per write by the row encoders.
CHUNK_ROWS = 8192

#: Chrome trace timestamps are microseconds.
_US = 1e6

#: Event kinds rendered as Chrome-trace instant events ("ph": "i").
_INSTANT_KINDS = ("cancel", "fault", "invariant", "audit")

#: Payload keys that would land on (or reorder) a header field of the
#: flattened event; rows carrying one go through the reference encoder.
_HEADER_KEYS = frozenset(("kind", "t", "vt", "tenant"))

#: Chrome-trace reserved color names used for tenant-colored instants.
#: The assignment is a stable hash of the tenant id, so one tenant keeps
#: one color across runs and exporters.
_TENANT_COLORS = (
    "thread_state_running",
    "thread_state_iowait",
    "rail_response",
    "rail_animation",
    "rail_idle",
    "rail_load",
    "cq_build_running",
    "cq_build_passed",
    "cq_build_failed",
    "vsync_highlight_color",
)

#: Instant events with no tenant (process-wide faults, drift audits).
_NEUTRAL_COLOR = "generic_work"


def _tenant_color(tenant: Optional[str]) -> str:
    if tenant is None:
        return _NEUTRAL_COLOR
    digest = zlib.crc32(str(tenant).encode("utf-8"))
    return _TENANT_COLORS[digest % len(_TENANT_COLORS)]


# -- column encoding ----------------------------------------------------------


def _memo_map(
    cache: Dict[Any, str], fn: Callable[[Any], str], values: Sequence[Any]
) -> List[str]:
    """``[fn(v) for v in values]``, calling ``fn`` once per distinct
    value not yet in ``cache`` (every step runs in C)."""
    missing = set(values).difference(cache)
    if missing:
        cache.update(zip(missing, map(fn, missing)))
    return list(map(cache.__getitem__, values))


_BOOLS = {True: "true", False: "false"}


def _column_kind(values: Sequence[Any]) -> Optional[type]:
    """The one type of every value in ``values`` -- ``float`` only when
    all of them are finite -- or ``None``."""
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is float and not all(map(math.isfinite, values)):
        return None
    return kind


def _float_texts(columns: Sequence[Sequence[float]]) -> Iterator[List[str]]:
    """``float.__repr__`` of each finite-float column, one list per
    column on demand, from one table holding each distinct value's text.

    The table is keyed on the 64-bit pattern, not the float: ``0.0 ==
    -0.0``, yet the two print differently, so a float-keyed table would
    need a special case for zeros.  The distinct patterns come from one
    sort, and each column finds its values in them by binary search,
    which holds two chunk-sized arrays where ``np.unique(...,
    return_inverse=True)`` holds about seven (1-2 MB more peak RSS on
    the audited e2e cell)."""
    bits = np.fromiter(itertools.chain.from_iterable(columns), np.float64).view(
        np.uint64
    )
    ordered = np.sort(bits)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    del ordered
    table = list(map(float.__repr__, distinct.view(np.float64).tolist()))
    end = 0
    for column in columns:
        start, end = end, end + len(column)
        index = np.searchsorted(distinct, bits[start:end]).tolist()
        yield list(map(table.__getitem__, index))


class _ColumnEncoder:
    """JSON text of value columns, each value as ``json.dumps`` writes it.

    :meth:`columns` takes the columns of one chunk at once.  Every
    column of finite floats goes into one table of that chunk
    (:func:`_float_texts`), so ``float.__repr__`` runs once per distinct
    value.  Other columns of one common type are converted in one pass:
    strings with ``encode_basestring_ascii`` (each distinct string once
    per export), ints with ``int.__repr__``, bools as literals.
    Anything else -- mixed columns, ``None``, non-finite floats,
    containers -- goes value by value, through ``json.dumps`` when
    nothing simpler applies.
    """

    def __init__(self) -> None:
        self._strings: Dict[str, str] = {}

    def columns(
        self, groups: Sequence[Sequence[Sequence[Any]]]
    ) -> Iterator[List[List[str]]]:
        """Text columns of each group of value columns, one group at a
        time; only the chunk's float table is built up front."""
        kinds = [[_column_kind(column) for column in group] for group in groups]
        floats = _float_texts(
            [
                column
                for group, group_kinds in zip(groups, kinds)
                for column, kind in zip(group, group_kinds)
                if kind is float
            ]
        )
        for group, group_kinds in zip(groups, kinds):
            yield [
                next(floats) if kind is float else self._column(column, kind)
                for column, kind in zip(group, group_kinds)
            ]

    def _column(self, values: Sequence[Any], kind: Optional[type]) -> List[str]:
        if kind is str:
            return _memo_map(self._strings, encode_basestring_ascii, values)
        if kind is int:
            return list(map(int.__repr__, values))
        if kind is bool:
            return list(map(_BOOLS.__getitem__, values))
        return [self.value(value) for value in values]

    def value(self, value: Any) -> str:
        kind = type(value)
        if kind is str:
            return encode_basestring_ascii(value)
        if kind is int:
            return int.__repr__(value)
        if kind is bool:
            return _BOOLS[value]
        if value is None:
            return "null"
        return json.dumps(value)


def _literal(text: str) -> str:
    """A JSON string literal for use inside a ``%`` template."""
    return encode_basestring_ascii(text).replace("%", "%%")


# -- JSONL event stream ---------------------------------------------------------


#: Row shape: kind, payload keys, and whether vt / tenant are present.
_Shape = Tuple[str, Tuple[str, ...], bool, bool]


def _jsonl_template(shape: _Shape) -> Optional[str]:
    """The ``%`` template of one row shape, or ``None`` when the shape
    must go through the reference encoder."""
    kind, keys, has_vt, has_tenant = shape
    if (
        type(kind) is not str
        or any(type(key) is not str for key in keys)
        or len(set(keys)) != len(keys)
        or not _HEADER_KEYS.isdisjoint(keys)
    ):
        return None
    parts = ['{"kind": ', _literal(kind), ', "t": %s']
    if has_vt:
        parts.append(', "vt": %s')
    if has_tenant:
        parts.append(', "tenant": %s')
    for key in keys:
        parts += [", ", _literal(key), ": %s"]
    parts.append("}\n")
    return "".join(parts)


def encode_rows_jsonl(rows: Sequence[Row]) -> Iterator[str]:
    """``events.jsonl`` text of ``rows``, one chunk per
    :data:`CHUNK_ROWS` rows; byte-identical to one ``json.dumps`` per
    event's :meth:`~repro.obs.events.TraceEvent.as_dict`."""
    encoder = _ColumnEncoder()
    templates: Dict[_Shape, Optional[str]] = {}
    for start in range(0, len(rows), CHUNK_ROWS):
        block = rows[start : start + CHUNK_ROWS]
        yield "".join(_jsonl_lines(block, encoder, templates))


def _jsonl_lines(
    block: Sequence[Row],
    encoder: _ColumnEncoder,
    templates: Dict[_Shape, Optional[str]],
) -> List[str]:
    """``events.jsonl`` lines of one chunk of rows.  The chunk's columns
    and float table are freed on return, before its lines are joined."""
    groups: Dict[_Shape, List[int]] = {}
    for i, row in enumerate(block):
        shape = (row[0], row[4], row[2] is not None, row[3] is not None)
        members = groups.get(shape)
        if members is None:
            groups[shape] = [i]
        else:
            members.append(i)
    lines = [""] * len(block)
    # (members, template, value columns) of each templated shape
    shapes: List[Tuple[List[int], str, List[Sequence[Any]]]] = []
    for shape, members in groups.items():
        if shape not in templates:
            templates[shape] = _jsonl_template(shape)
        template = templates[shape]
        group = [block[i] for i in members]
        if template is None:
            for i, row in zip(members, group):
                lines[i] = json.dumps(row_as_dict(row)) + "\n"
            continue
        columns: List[Sequence[Any]] = [[row[1] for row in group]]
        if shape[2]:
            columns.append([row[2] for row in group])
        if shape[3]:
            columns.append([row[3] for row in group])
        columns.extend(zip(*[row[5] for row in group]))
        shapes.append((members, template, columns))
    texts = encoder.columns([columns for _, _, columns in shapes])
    for (members, template, _), shape_texts in zip(shapes, texts):
        for i, fields in zip(members, zip(*shape_texts)):
            lines[i] = template % fields
    return lines


def write_rows_jsonl(rows: Sequence[Row], path: Union[str, Path]) -> Path:
    """Write ``events.jsonl`` from a tracer's rows (see
    :func:`encode_rows_jsonl`)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        # writelines drops each chunk before it asks for the next one.
        fh.writelines(encode_rows_jsonl(rows))
    return path


# -- Chrome trace ----------------------------------------------------------------


def _pid(server: Optional[int]) -> int:
    """Chrome process of a server: pid 1 is the run itself (a single
    server's threads, and every instant), server ``s`` of a fleet is
    pid ``s + 2``."""
    return 1 if server is None else server + 2


def _slice_name(tenant: Any, api: Any) -> str:
    return f"{tenant}/{api}" if api else str(tenant)


def _process_meta(pid: int, process_name: str) -> Dict[str, Any]:
    return {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": process_name},
    }


def _chrome_head(
    tenure: Sequence[Occupancy], process_name: str
) -> List[Dict[str, Any]]:
    """Metadata events: one process for the run and one per fleet
    server, one named row per worker thread that ran a request."""
    out = [_process_meta(1, process_name)]
    for server in sorted({o.server for o in tenure if o.server is not None}):
        out.append(_process_meta(_pid(server), f"{process_name}/server-{server}"))
    for pid, tid in sorted({(_pid(o.server), o.thread) for o in tenure}):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": f"worker-{tid}"},
            }
        )
        out.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )
    return out


def _trace_records(record: Dict[str, Any], pid: int) -> List[Dict[str, Any]]:
    """Chrome events contributed by one flattened trace event: two
    counter samples (in process ``pid``) per dispatch, one instant per
    exceptional kind."""
    kind = record.get("kind")
    if kind == "dispatch":
        ts = record["t"] * _US
        return [
            {
                "name": "virtual_time",
                "ph": "C",
                "ts": ts,
                "pid": pid,
                "args": {"vt": record.get("vt", 0.0)},
            },
            {
                "name": "backlog",
                "ph": "C",
                "ts": ts,
                "pid": pid,
                "args": {"queued": record.get("backlog", 0)},
            },
        ]
    if kind in _INSTANT_KINDS:
        tenant = record.get("tenant")
        detail = record.get("fault") or record.get("code") or record.get("monitor")
        args = {k: v for k, v in record.items() if k not in ("kind", "t")}
        return [
            {
                "name": f"{kind}:{detail}" if detail else kind,
                "cat": kind,
                "ph": "i",
                "s": "p",
                "ts": record["t"] * _US,
                "pid": 1,
                "tid": 0,
                "cname": _tenant_color(tenant),
                "args": args,
            }
        ]
    return []


_SLICE_TEMPLATE = (
    '{"name": %s, "cat": "request", "ph": "X", "ts": %s, "dur": %s, '
    '"pid": %s, "tid": %s, "args": {"tenant": %s, "cost": %s}}'
)
_COUNTER_TEMPLATE = (
    '{"name": "virtual_time", "ph": "C", "ts": %s, "pid": %s, "args": {"vt": %s}}, '
    '{"name": "backlog", "ph": "C", "ts": %s, "pid": %s, "args": {"queued": %s}}'
)


def _slice_chunks(
    tenure: Sequence[Occupancy], encoder: _ColumnEncoder
) -> Iterator[str]:
    """Encoded ``"ph": "X"`` slices, one per occupancy,
    :data:`CHUNK_ROWS` a chunk."""
    for start in range(0, len(tenure), CHUNK_ROWS):
        yield ", ".join(_slice_items(tenure[start : start + CHUNK_ROWS], encoder))


def _slice_items(block: Sequence[Occupancy], encoder: _ColumnEncoder) -> List[str]:
    """The encoded slices of one chunk of occupancies (its columns and
    float table are freed on return)."""
    (texts,) = encoder.columns(
        [
            [
                [_slice_name(o.tenant, o.api) for o in block],
                [o.start * _US for o in block],
                [max(0.0, o.end - o.start) * _US for o in block],
                [_pid(o.server) for o in block],
                [o.thread for o in block],
                [o.tenant for o in block],
                [o.cost for o in block],
            ]
        ]
    )
    return [_SLICE_TEMPLATE % item for item in zip(*texts)]


#: How the Chrome encoder renders a row of one (kind, keys) pair:
#: ``None`` skip, ``-1`` through the reference builder, otherwise a
#: dispatch whose ``backlog`` payload field sits at that position
#: (``len(keys)`` when the field is absent).
_Layout = Optional[int]


def _chrome_layout(kind: str, keys: Tuple[str, ...]) -> _Layout:
    if not _HEADER_KEYS.isdisjoint(keys) or kind in _INSTANT_KINDS:
        return -1
    if kind != "dispatch":
        return None
    return keys.index("backlog") if "backlog" in keys else len(keys)


def _trace_chunks(
    rows: Sequence[Row], pids: Dict[int, int], encoder: _ColumnEncoder
) -> Iterator[str]:
    """Encoded counter samples and instants of the rows, in emission
    order, :data:`CHUNK_ROWS` rows a chunk; ``pids`` maps a dispatch
    row's index to its fleet server's process (absent: pid 1)."""
    layouts: Dict[Tuple[str, Tuple[str, ...]], _Layout] = {}
    for first in range(0, len(rows), CHUNK_ROWS):
        indices = range(first, min(first + CHUNK_ROWS, len(rows)))
        items = _trace_items(rows, indices, pids, layouts, encoder)
        if items:
            yield ", ".join(items)


def _trace_items(
    rows: Sequence[Row],
    indices: range,
    pids: Dict[int, int],
    layouts: Dict[Tuple[str, Tuple[str, ...]], _Layout],
    encoder: _ColumnEncoder,
) -> List[str]:
    """The encoded counter samples and instants of ``rows[indices]``
    (its columns and float table are freed on return)."""
    items: List[str] = []
    # backlog position -> (item slots, row indices)
    counters: Dict[int, Tuple[List[int], List[int]]] = {}
    for index in indices:
        row = rows[index]
        shape = (row[0], row[4])
        if shape not in layouts:
            layouts[shape] = _chrome_layout(*shape)
        layout = layouts[shape]
        if layout is None:
            continue
        if layout < 0:
            records = _trace_records(row_as_dict(row), pids.get(index, 1))
            items.extend(map(json.dumps, records))
            continue
        slots, members = counters.setdefault(layout, ([], []))
        slots.append(len(items))
        members.append(index)
        items.append("")
    groups: List[List[List[Any]]] = []
    for position, (_, members) in counters.items():
        block = [rows[index] for index in members]
        groups.append(
            [
                [row[1] * _US for row in block],
                [pids.get(index, 1) for index in members],
                [0.0 if row[2] is None else row[2] for row in block],
                [row[5][position] if position < len(row[5]) else 0 for row in block],
            ]
        )
    for (slots, _), (ts, pid, vts, backlogs) in zip(
        counters.values(), encoder.columns(groups)
    ):
        for slot, t, p, vt, backlog in zip(slots, ts, pid, vts, backlogs):
            items[slot] = _COUNTER_TEMPLATE % (t, p, vt, t, p, backlog)
    return items


def write_chrome_trace(
    rows: Sequence[Row],
    path: Union[str, Path],
    process_name: str = "repro",
    metadata: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a Chrome/Perfetto-loadable trace (JSON object format).

    Request slices come from the rows' thread occupancy
    (:func:`~repro.obs.events.occupancies`); counters and instants from
    the rows themselves.  Streams, in bounded chunks, the bytes
    ``json.dumps`` would write for one dict per Chrome event."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tenure = occupancies(rows)
    pids = {o.row: _pid(o.server) for o in tenure if o.server is not None}
    encoder = _ColumnEncoder()
    with path.open("w") as fh:
        fh.write('{"traceEvents": [')
        fh.write(", ".join(map(json.dumps, _chrome_head(tenure, process_name))))
        for chunk in itertools.chain(
            _slice_chunks(tenure, encoder), _trace_chunks(rows, pids, encoder)
        ):
            fh.write(", ")
            fh.write(chunk)
            del chunk  # freed before the next chunk is encoded
        fh.write('], "displayTimeUnit": "ms", "otherData": ')
        fh.write(json.dumps(metadata or {}))
        fh.write("}\n")
    return path


# -- manifest ----------------------------------------------------------------------


# Provenance lookups are cached per process: the git SHA and package
# versions cannot change mid-run, and a figure suite writes one manifest
# per scheduler run -- shelling out to git for each would dominate
# export time.  (``functools.cache``-style memoization; the regression
# test in tests/test_obs_exporters.py pins "one subprocess per
# process".)


#: Row kinds that trigger a flight-recorder dump, and the dumps kept.
FLIGHT_TRIGGERS = (FAULT, INVARIANT)
FLIGHT_MAX_DUMPS = 4


def flight_payload(rows: Sequence[Row], capacity: int) -> Optional[Dict[str, Any]]:
    """The flight-recorder dumps of a run's rows (``None`` without a
    trigger row): each of the first :data:`FLIGHT_MAX_DUMPS` trigger
    rows with the ``capacity`` rows ending at it (its ``ring``) and its
    1-based position (``events_seen``); later triggers are counted in
    ``suppressed_dumps``.  The watchdog emits its ``invariant`` row
    before raising, so an aborted run still has its dump."""
    triggers = [i for i, row in enumerate(rows) if row[0] in FLIGHT_TRIGGERS]
    if not triggers:
        return None
    dumps = [
        {
            "trigger": row_as_dict(rows[i]),
            "events_seen": i + 1,
            "ring": list(map(row_as_dict, rows[max(0, i + 1 - capacity) : i + 1])),
        }
        for i in triggers[:FLIGHT_MAX_DUMPS]
    ]
    return {
        "capacity": capacity,
        "trigger_kinds": list(FLIGHT_TRIGGERS),
        "events_seen": len(rows),
        "suppressed_dumps": len(triggers) - len(dumps),
        "dumps": dumps,
    }


def write_flight_recorder(
    rows: Sequence[Row], path: Union[str, Path], capacity: int
) -> Optional[Path]:
    """Write :func:`flight_payload` to ``path`` and return it; write
    nothing and return ``None`` when no row is a trigger."""
    payload = flight_payload(rows, capacity)
    if payload is None:
        return None
    target = Path(path)
    with target.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target


@functools.lru_cache(maxsize=1)
def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


@functools.lru_cache(maxsize=1)
def _cached_package_versions() -> Dict[str, str]:
    versions = {"python": platform.python_version()}
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        pass
    try:
        from repro import __version__

        versions["repro"] = __version__
    except ImportError:  # pragma: no cover
        pass
    return versions


def _package_versions() -> Dict[str, str]:
    # Copy so a caller mutating its manifest cannot poison the cache.
    return dict(_cached_package_versions())


def build_manifest(
    *,
    name: str,
    seed: Optional[int] = None,
    config: Optional[Dict[str, Any]] = None,
    scheduler: Optional[Dict[str, Any]] = None,
    counters: Optional[Dict[str, Any]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the provenance record of one run (JSON-ready)."""
    manifest: Dict[str, Any] = {
        "name": name,
        "seed": seed,
        "config": config or {},
        "scheduler": scheduler or {},
        "versions": _package_versions(),
        "platform": {
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "git_sha": _git_sha(),
        "argv": list(sys.argv),
    }
    if counters:
        manifest["counters"] = counters
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(path: Union[str, Path], **kwargs: Any) -> Path:
    """Build and write ``manifest.json`` (kwargs as for
    :func:`build_manifest`)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest = build_manifest(**kwargs)
    path.write_text(json.dumps(_jsonable(manifest), indent=2, sort_keys=True) + "\n")
    return path


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serializable structures."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
