"""Offline traces: generation, persistence, and transformation.

A trace is a time-sorted sequence of :class:`TraceRecord` rows --
``(time, tenant, api, cost)`` -- the same information the paper's
production traces carry.  Traces are produced from open-loop tenant
specs, can be saved/loaded as CSV (optionally gzipped), merged, rescaled,
and *scrambled* into unpredictable variants (paper §6.2.1: unpredictable
tenants are made "by sampling each request pseudo-randomly from across
all production traces disregarding the originating server or account").

Every function here returns a :class:`Trace`: the rows stored as columns
(struct of arrays), so generation, thinning, rescaling, merging and
scrambling are array operations, and a :class:`TraceRecord` is built only
when a row is read.  The columnar path draws exactly the random numbers
the per-record path it replaced drew, in the same order, so traces are
bit-identical seed for seed (DESIGN.md §18).
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Collection, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..errors import WorkloadError
from ..metrics.latency import percentiles
from ..simulator.rng import make_rng
from .arrivals import OpenLoopProcess
from .spec import TenantSpec

__all__ = [
    "Trace",
    "TraceRecord",
    "generate_trace",
    "merge_traces",
    "scramble_trace",
    "rescale_trace",
    "thin_trace",
    "chunk_trace",
    "save_trace",
    "load_trace",
    "trace_statistics",
]

_HEADER = ("time", "tenant", "api", "cost")


@dataclass(frozen=True)
class TraceRecord:
    """One request arrival in an offline trace."""

    time: float
    tenant: str
    api: str
    cost: float


def _encode(names: Sequence[str]) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """``(codes, table)``: ``names`` as indexes into their sorted table."""
    table = tuple(sorted(set(names)))
    index = {name: code for code, name in enumerate(table)}
    return np.array([index[name] for name in names], dtype=np.intp), table


def _recode(
    codes: np.ndarray, table: Sequence[str], index: Dict[str, int]
) -> np.ndarray:
    """``codes`` into ``table`` rewritten as codes of the name ``index``."""
    return np.array([index[name] for name in table], dtype=np.intp)[codes]


class Trace(Sequence[TraceRecord]):
    """A trace stored as columns, one row per request, in trace order.

    The columns are read-only numpy arrays of one length:

    * ``times`` -- arrival times, ``float64``;
    * ``tenant_codes`` -- indexes into ``tenants``;
    * ``api_codes`` -- indexes into ``apis``;
    * ``costs`` -- request costs, ``float64``.

    ``tenants`` and ``apis`` are sorted name tables, so ordering rows by
    tenant code orders them by tenant name.  A table may hold names no row
    uses any more (after thinning, say).

    A ``Trace`` is a ``Sequence[TraceRecord]``: ``len``, indexing and
    iteration yield rows, and ``==`` compares rows with any sequence of
    records.  A slice, boolean mask or index array selects a sub-trace.
    :meth:`from_records` builds one from rows.
    """

    def __init__(
        self,
        times: np.ndarray,
        tenant_codes: np.ndarray,
        api_codes: np.ndarray,
        costs: np.ndarray,
        tenants: Tuple[str, ...],
        apis: Tuple[str, ...],
    ) -> None:
        for column in (times, tenant_codes, api_codes, costs):
            column.flags.writeable = False
        self.times = times
        self.tenant_codes = tenant_codes
        self.api_codes = api_codes
        self.costs = costs
        self.tenants = tenants
        self.apis = apis
        self._rows: Optional[List[TraceRecord]] = None

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord] = ()) -> "Trace":
        """The trace of ``records``, in their order."""
        rows = list(records)
        return _from_rows(
            [r.time for r in rows], [r.tenant for r in rows],
            [r.api for r in rows], [r.cost for r in rows],
        )

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, (int, np.integer)):
            return TraceRecord(
                float(self.times[index]),
                self.tenants[self.tenant_codes[index]],
                self.apis[self.api_codes[index]],
                float(self.costs[index]),
            )
        return Trace(
            self.times[index], self.tenant_codes[index], self.api_codes[index],
            self.costs[index], self.tenants, self.apis,
        )

    def __iter__(self) -> Iterator[TraceRecord]:
        # Rows are built on the first full read and kept: the columns
        # never change.
        if self._rows is None:
            tenants = np.array(self.tenants, dtype=object)[self.tenant_codes]
            apis = np.array(self.apis, dtype=object)[self.api_codes]
            self._rows = list(map(
                TraceRecord, self.times.tolist(), tenants.tolist(), apis.tolist(),
                self.costs.tolist(),
            ))
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    def __repr__(self) -> str:
        return f"Trace({len(self)} records, {len(self.tenants)} tenants)"

    def tenant_mask(self, tenants: Iterable[str]) -> np.ndarray:
        """Boolean mask of the rows whose tenant is in ``tenants``."""
        wanted = set(tenants)
        codes = [code for code, name in enumerate(self.tenants) if name in wanted]
        return np.isin(self.tenant_codes, codes)


def _from_rows(
    times: Sequence[float],
    tenants: Sequence[str],
    apis: Sequence[str],
    costs: Sequence[float],
) -> Trace:
    """A trace of per-row times, tenant names, API names and costs."""
    tenant_codes, tenant_table = _encode(tenants)
    api_codes, api_table = _encode(apis)
    return Trace(
        np.array(times, dtype=float), tenant_codes, api_codes,
        np.array(costs, dtype=float), tenant_table, api_table,
    )


def _as_trace(trace: Iterable[TraceRecord]) -> Trace:
    return trace if isinstance(trace, Trace) else Trace.from_records(trace)


def _time_sorted(trace: Trace) -> Trace:
    """Rows by ``(time, tenant)``; ``np.lexsort`` is stable, so equal keys
    keep their order, as they did under the stable row sort."""
    return trace[np.lexsort((trace.tenant_codes, trace.times))]


def _joined(traces: Sequence[Trace]) -> Trace:
    """The rows of ``traces``, one after another, over merged tables."""
    tenants = tuple(sorted(set().union(*(t.tenants for t in traces))))
    apis = tuple(sorted(set().union(*(t.apis for t in traces))))
    tenant_index = {name: code for code, name in enumerate(tenants)}
    api_index = {name: code for code, name in enumerate(apis)}
    return Trace(
        np.concatenate([np.empty(0)] + [t.times for t in traces]),
        np.concatenate(
            [np.empty(0, np.intp)]
            + [_recode(t.tenant_codes, t.tenants, tenant_index) for t in traces]
        ),
        np.concatenate(
            [np.empty(0, np.intp)]
            + [_recode(t.api_codes, t.apis, api_index) for t in traces]
        ),
        np.concatenate([np.empty(0)] + [t.costs for t in traces]),
        tenants,
        apis,
    )


def generate_trace(
    specs: Sequence[TenantSpec],
    duration: float,
    seed: int = 0,
) -> Trace:
    """Generate a merged, time-sorted trace from open-loop tenant specs.

    Each tenant draws its arrival times and its requests from its own
    streams (``make_rng(seed, "arrivals"|"costs", tenant)``), so adding
    a tenant never perturbs another.  Backlogged (closed-loop) specs
    cannot be pre-materialized -- their arrival times depend on the
    scheduler -- and raise :class:`~repro.errors.WorkloadError`.
    """
    parts: List[Trace] = []
    for spec in specs:
        process = spec.arrivals
        if not isinstance(process, OpenLoopProcess):
            raise WorkloadError(
                f"tenant {spec.tenant_id} is closed-loop; traces require "
                "open-loop arrival processes"
            )
        arrival_rng = make_rng(seed, "arrivals", spec.tenant_id)
        times = np.asarray(process.arrival_times(arrival_rng, duration), dtype=float)
        cost_rng = make_rng(seed, "costs", spec.tenant_id)
        apis, picks, costs = spec.sample_costs(cost_rng, len(times))
        parts.append(
            Trace(
                times, np.zeros(len(times), dtype=np.intp), picks, costs,
                (spec.tenant_id,), tuple(apis),
            )
        )
    return _time_sorted(_joined(parts))


def merge_traces(*traces: Iterable[TraceRecord]) -> Trace:
    """Merge traces into one time-sorted trace."""
    return _time_sorted(_joined([_as_trace(trace) for trace in traces]))


def scramble_trace(
    trace: Sequence[TraceRecord],
    tenants: Sequence[str],
    seed: int = 0,
) -> Trace:
    """Make the given tenants *unpredictable* (paper §6.2.1).

    Each selected tenant keeps its arrival times but has every request's
    ``(api, cost)`` replaced by a pair sampled uniformly at random from
    the whole trace, "disregarding the originating server or account".
    The result "lack[s] predictability in API type and cost that is
    common to real-world tenants".
    """
    trace = _as_trace(trace)
    if not trace:
        return trace
    rng = make_rng(seed, "scramble", *sorted(tenants))
    # One pool index per row, drawn for every row, selected or not.
    indices = rng.integers(0, len(trace), size=len(trace))
    selected = trace.tenant_mask(tenants)
    source = np.where(selected, indices, np.arange(len(trace)))
    return Trace(
        trace.times, trace.tenant_codes, trace.api_codes[source],
        trace.costs[source], trace.tenants, trace.apis,
    )


def rescale_trace(
    trace: Sequence[TraceRecord], speed: float
) -> Trace:
    """Compress (speed > 1) or stretch (speed < 1) a trace in time."""
    if not 0.0 < speed < math.inf:
        raise WorkloadError(f"speed must be positive and finite, got {speed!r}")
    trace = _as_trace(trace)
    return Trace(
        trace.times / speed, trace.tenant_codes, trace.api_codes,
        trace.costs, trace.tenants, trace.apis,
    )


def thin_trace(
    trace: Sequence[TraceRecord],
    keep_fraction: float,
    seed: int = 0,
    tenants: Collection[str] | None = None,
) -> Trace:
    """Randomly keep each record with probability ``keep_fraction``.

    Thinning scales a trace's aggregate demand without disturbing its
    cost distributions or arrival shapes; the experiment harness uses it
    to pin open-loop load to a target utilization so queues stay busy
    but bounded (the paper "used ... traces ... to keep the server busy
    throughout the experiments, but also ran experiments at lower
    utilizations", §6).  With ``tenants``, only their records are
    thinned (one draw per such record, in trace order); every other
    record is kept.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise WorkloadError(
            f"keep_fraction must be in (0, 1], got {keep_fraction}"
        )
    trace = _as_trace(trace)
    if keep_fraction >= 1.0:
        return trace
    rng = make_rng(seed, "thin")
    if tenants is None:
        candidates = np.ones(len(trace), dtype=bool)
    else:
        candidates = trace.tenant_mask(tenants)
    keep = ~candidates
    keep[candidates] = rng.random(int(candidates.sum())) < keep_fraction
    return trace[keep]


def chunk_trace(
    trace: Sequence[TraceRecord],
    max_cost: float,
    overhead: float = 0.0,
) -> Trace:
    """Split requests larger than ``max_cost`` into chunks (paper §7).

    The paper discusses the alternative to 2DFQ of reducing cost
    variation at the source: "after 100ms of work a request could pause
    and re-enter the scheduler queue" (the approach of Google's web
    search stack).  This transform models it at the workload level: a
    request of cost ``c`` becomes ``ceil(c / max_cost)`` requests of
    cost ``<= max_cost`` arriving at the same instant, each inflated by
    ``overhead`` cost units -- the re-entry/cache-refill penalty the
    paper warns about.  Per-tenant FIFO ordering preserves chunk order.
    """
    if max_cost <= 0:
        raise WorkloadError(f"max_cost must be positive, got {max_cost}")
    if overhead < 0:
        raise WorkloadError(f"overhead must be >= 0, got {overhead}")
    out: List[TraceRecord] = []
    for record in trace:
        remaining = record.cost
        while remaining > 0:
            piece = min(remaining, max_cost)
            out.append(
                TraceRecord(
                    record.time, record.tenant, record.api, piece + overhead
                )
            )
            remaining -= piece
    return Trace.from_records(out)


def save_trace(
    trace: Iterable[TraceRecord], path: Union[str, Path]
) -> None:
    """Write a trace as CSV; ``.gz`` suffix triggers gzip compression."""
    path = Path(path)
    raw = io.StringIO()
    writer = csv.writer(raw)
    writer.writerow(_HEADER)
    for record in trace:
        # repr() round-trips floats exactly (shortest representation).
        writer.writerow(
            (repr(record.time), record.tenant, record.api, repr(record.cost))
        )
    data = raw.getvalue().encode("utf-8")
    if path.suffix == ".gz":
        path.write_bytes(gzip.compress(data))
    else:
        path.write_bytes(data)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Every row must have four fields, a finite time no lower than the
    previous row's (and not negative), and a finite positive cost; a
    row that does not raises :class:`~repro.errors.WorkloadError` naming
    ``path:line``.
    """
    path = Path(path)
    if path.suffix == ".gz":
        data = gzip.decompress(path.read_bytes()).decode("utf-8")
    else:
        data = path.read_text()
    reader = csv.reader(io.StringIO(data))
    header = next(reader, None)
    if header is None or tuple(header) != _HEADER:
        raise WorkloadError(f"{path}: not a trace file (header {header})")
    times: List[float] = []
    tenants: List[str] = []
    apis: List[str] = []
    costs: List[float] = []
    previous = 0.0
    for row in reader:
        where = f"{path}:{reader.line_num}"
        if len(row) != 4:
            raise WorkloadError(f"{where}: expected 4 fields, got {len(row)}: {row}")
        try:
            time, cost = float(row[0]), float(row[3])
        except ValueError as exc:
            raise WorkloadError(f"{where}: {exc}") from None
        if not math.isfinite(time) or time < 0:
            raise WorkloadError(f"{where}: time must be finite and >= 0, got {row[0]}")
        if time < previous:
            raise WorkloadError(
                f"{where}: time {row[0]} is before the previous row's {previous!r}"
            )
        if not math.isfinite(cost) or cost <= 0:
            raise WorkloadError(f"{where}: cost must be finite and > 0, got {row[3]}")
        previous = time
        times.append(time)
        tenants.append(row[1])
        apis.append(row[2])
        costs.append(cost)
    return _from_rows(times, tenants, apis, costs)


def trace_statistics(trace: Sequence[TraceRecord]) -> dict:
    """Aggregate statistics of a trace (used in workload validation)."""
    trace = _as_trace(trace)
    if not trace:
        return {"requests": 0}
    costs = trace.costs
    cost_p50, cost_p99 = percentiles(costs, (50, 99))
    return {
        "requests": len(trace),
        "tenants": len(np.unique(trace.tenant_codes)),
        "apis": len(np.unique(trace.api_codes)),
        "duration": float(trace.times[-1] - trace.times[0]),
        "cost_min": float(costs.min()),
        "cost_p50": cost_p50,
        "cost_p99": cost_p99,
        "cost_max": float(costs.max()),
        "total_cost": float(costs.sum()),
    }
