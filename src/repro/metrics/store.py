"""The per-run metrics store (DESIGN.md §13).

Every per-run statistic lives in one :class:`MetricsPartial`, and every
part of it keeps every value:

* latency, per tenant -- a list, in completion order;
* service curves, service lag and Gini samples -- one
  :class:`ServiceRecorder` of row samples, folded into per-tenant
  columns with numpy when first read;
* dispatch log -- one flat list of plain values, six per record, in
  dispatch order, read back through a :class:`DispatchLog` view.

While a run is live, the server (or fleet) writes its lifecycle facts
straight into a :class:`RunRecord` whose lists are the store's own.
Per-request data is stored as plain strs and numbers in flat lists, so
no per-request container stays tracked by the garbage collector
(DESIGN.md §13, *GC discipline*).
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..simulator.gps import fluid_services
from ..simulator.server import DISPATCH_FIELDS, DispatchRecord
from ..units import Cost, Duration, Scalar, SimTime
from .gini import gini_rows
from .service import ServiceSeries

__all__ = ["DispatchLog", "MetricsPartial", "RunRecord", "ServiceRecorder"]


class RunRecord:
    """What a :class:`~repro.simulator.server.ThreadPoolServer` or a
    :class:`~repro.fleet.fleet.Fleet` writes while a collector is
    attached (``attach_record``): each arrival's
    ``tenant, cost, now, weight`` until the collector replays it into
    its GPS reference, each dispatch record's values (when
    ``dispatch_log`` is not ``None``) and each latency of a completion
    at or after ``warmup``.  ``arrivals`` and ``dispatch_log`` are flat
    lists of plain values, four and :data:`~repro.simulator.server.
    DISPATCH_FIELDS` per item: a write is one ``list.extend`` and
    leaves no container for the garbage collector to track."""

    __slots__ = ("arrivals", "dispatch_log", "latencies", "warmup")

    def __init__(
        self,
        partial: "MetricsPartial",
        warmup: Duration,
        record_dispatches: bool = True,
    ) -> None:
        self.arrivals: List[Any] = []
        self.dispatch_log: Optional[List[Any]] = (
            partial.dispatch_log if record_dispatches else None
        )
        self.latencies: Dict[str, List[Duration]] = partial.latencies
        self.warmup: Duration = float(warmup)


class DispatchLog(Sequence[DispatchRecord]):
    """Read-only :class:`~repro.simulator.server.DispatchRecord` view of
    a flat dispatch log.

    ``len`` is O(1); each read builds fresh records from the flat
    values, so the flat list stays the only store."""

    __slots__ = ("_flat",)

    def __init__(self, flat: List[Any]) -> None:
        self._flat = flat

    def __len__(self) -> int:
        return len(self._flat) // DISPATCH_FIELDS

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("dispatch log index out of range")
        start = index * DISPATCH_FIELDS
        return DispatchRecord._make(self._flat[start : start + DISPATCH_FIELDS])

    def __iter__(self) -> Iterator[DispatchRecord]:
        it = iter(self._flat)
        return map(DispatchRecord, it, it, it, it, it, it)

    def __repr__(self) -> str:
        return f"<{len(self)} dispatch records>"


class _Folded(NamedTuple):
    """The per-tenant views of a :class:`ServiceRecorder`'s rows.
    ``actual`` and ``gps`` hold one row per tenant (at its column), one
    column per sample, carry-forward applied."""

    times: np.ndarray
    actual: np.ndarray
    gps: np.ndarray
    lags: Dict[str, np.ndarray]
    gini: List[Tuple[SimTime, Scalar]]


class ServiceRecorder:
    """Recorder of per-tenant cumulative service curves, service lag and
    the Gini rows of interval service, one row per sample.

    A sample is stored as a row and nothing is computed per tenant
    until the recorder is first read, when every row is folded at once
    with numpy (a later sample refolds).  Read back:

    * ``columns(t)``: in the ``actual`` and ``gps`` columns, tenants
      appearing mid-run are zero-filled for earlier samples, and a
      tenant missing from a later sample carries its last value;
    * ``lags[t]``: each tenant's ``actual - gps`` as a float64 array,
      one entry per sample that reports the tenant's actual service
      (a missing GPS value counts as 0.0), zero-filled for the samples
      taken before it first did;
    * ``gini()``: the ``(time, index)`` Gini samples.

    Rows come in two kinds; one recorder takes one kind.
    :meth:`observe` takes a sample's ``actual`` and ``gps`` dicts with
    any keys.  The collectors call :meth:`observe_row`: the actual
    service and the GPS reference's :meth:`~repro.simulator.gps.
    GPSReference.sample_row` of the first ``n`` tenants registered with
    :meth:`add_tenants`, so a sample builds no per-tenant Python object.

    ``baselines`` holds each tenant's cumulative service *before* the
    first sample (the last pre-warmup sample), so
    :meth:`ServiceSeries.service_rate` differences the first sample
    against it instead of against zero; it also opens the first Gini
    row's interval.
    """

    __slots__ = (
        "times",
        "baselines",
        "_tenants",
        "_index",
        "_weights",
        "_actual",
        "_actual_cols",
        "_gps",
        "_gps_cols",
        "_virtual",
        "_empty_at",
        "_active",
        "_gini_tenants",
        "_gini_weights",
        "_folded",
    )

    def __init__(self) -> None:
        self.times: "array[float]" = array("d")
        self.baselines: Dict[str, Cost] = {}
        #: Every tenant in the order it was first recorded, its column,
        #: and (for row samples) its GPS weight.
        self._tenants: List[str] = []
        self._index: Dict[str, int] = {}
        self._weights: "array[float]" = array("d")
        # Per sample: the actual values and their columns (None: the
        # first len(values) columns), the GPS values -- or, for a row
        # sample, the flows' arrived service -- and their columns, and
        # a row sample's virtual time and emptying times.
        self._actual: List["array[float]"] = []
        self._actual_cols: List[Optional["array[int]"]] = []
        self._gps: List["array[float]"] = []
        self._gps_cols: List[Optional["array[int]"]] = []
        self._virtual: "array[float]" = array("d")
        self._empty_at: List[Optional["array[float]"]] = []
        # Per sample: the active flags of the Gini tenants (None: no Gini
        # row), and the Gini tenants with their weights.
        self._active: List[Optional[bytes]] = []
        self._gini_tenants: List[str] = []
        self._gini_weights: "array[float]" = array("d")
        self._folded: Optional[_Folded] = None

    def __getstate__(self) -> Dict[str, Any]:
        # The folded views are derived: a copy refolds when read.
        return {name: getattr(self, name) for name in self.__slots__[:-1]}

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._folded = None

    # -- writing ---------------------------------------------------------------

    def observe(
        self, time: SimTime, actual: Dict[str, Cost], gps: Dict[str, Cost]
    ) -> None:
        """Record one sample: each tenant's actual and GPS service.
        Nothing is allocated in proportion to the samples already
        taken."""
        index = self._index
        for values in (actual, gps):
            if not index.keys() >= values.keys():
                for tenant in values:
                    if tenant not in index:
                        index[tenant] = len(self._tenants)
                        self._tenants.append(tenant)
        self.times.append(time)
        self._actual.append(array("d", actual.values()))
        self._actual_cols.append(array("q", map(index.__getitem__, actual)))
        self._gps.append(array("d", gps.values()))
        self._gps_cols.append(array("q", map(index.__getitem__, gps)))
        self._virtual.append(0.0)
        self._empty_at.append(None)
        self._active.append(None)
        self._folded = None

    def add_tenants(self, tenants: Sequence[str], weights: Sequence[float]) -> None:
        """Register the next tenants of :meth:`observe_row` samples, in
        order, with their GPS weights."""
        for tenant in tenants:
            self._index[tenant] = len(self._tenants)
            self._tenants.append(tenant)
        self._weights.extend(weights)
        self._folded = None

    def add_gini_tenants(
        self, tenants: Sequence[str], weights: Sequence[float]
    ) -> None:
        """Register the next tenants whose active flags
        :meth:`observe_row` samples carry, with their weights."""
        self._gini_tenants.extend(tenants)
        self._gini_weights.extend(weights)
        self._folded = None

    def observe_row(
        self,
        time: SimTime,
        actual: "array[float]",
        gps: Tuple[float, "array[float]", "array[float]"],
        active: Optional[bytes] = None,
    ) -> None:
        """Record one sample of the first ``len(actual)`` tenants
        registered with :meth:`add_tenants`: their actual service, the
        GPS reference's ``sample_row()`` of the same tenants, and the
        active flags of the first ``len(active)`` Gini tenants (whose
        weight-normalized interval service makes the sample's Gini row;
        ``None`` for no Gini row)."""
        virtual, arrived, empty_at = gps
        self.times.append(time)
        self._actual.append(actual)
        self._actual_cols.append(None)
        self._gps.append(arrived)
        self._gps_cols.append(None)
        self._virtual.append(virtual)
        self._empty_at.append(empty_at)
        self._active.append(active)
        self._folded = None

    # -- reading ---------------------------------------------------------------

    @property
    def lags(self) -> Dict[str, np.ndarray]:
        return self._fold().lags

    def gini(self) -> List[Tuple[SimTime, Scalar]]:
        """The ``(time, index)`` Gini samples, in time order."""
        return self._fold().gini

    def tenants(self) -> List[str]:
        return sorted(self._fold().lags)

    def columns(self, tenant_id: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, actual, gps) arrays for one tenant; trailing gaps
        carry the last value."""
        folded = self._fold()
        column = self._index.get(tenant_id)
        if column is None:
            zeros = np.zeros(folded.times.size)
            return folded.times.copy(), zeros, zeros.copy()
        return (
            folded.times.copy(),
            folded.actual[column].copy(),
            folded.gps[column].copy(),
        )

    def service_series(self, tenant_id: str) -> ServiceSeries:
        """Freeze one tenant's samples into a :class:`ServiceSeries`."""
        times, actual, gps = self.columns(tenant_id)
        return ServiceSeries(
            tenant_id=tenant_id,
            times=times,
            actual=actual,
            gps=gps,
            baseline=self.baselines.get(tenant_id, 0.0),
        )

    # -- the fold ------------------------------------------------------------------

    def _fold(self) -> _Folded:
        folded = self._folded
        if folded is None:
            folded = self._folded = self._fold_rows()
        return folded

    def _fold_rows(self) -> _Folded:
        samples = len(self.times)
        width = len(self._tenants)
        actual, has_actual = _scatter(self._actual, self._actual_cols, samples, width)
        gps, has_gps = _scatter(self._gps, self._gps_cols, samples, width)
        rows = np.array([e is not None for e in self._empty_at], dtype=bool)
        if rows.any():
            # Row samples: their GPS service from the captured fluid state.
            empty_at, _ = _scatter(
                self._empty_at, self._gps_cols, samples, width, fill=-np.inf
            )
            virtual = np.frombuffer(self._virtual, dtype=float)
            weights = np.ones(width)
            weights[: len(self._weights)] = self._weights
            fluid = fluid_services(virtual, gps, empty_at, weights)
            gps = np.where(rows[:, None], fluid, gps)
        # A missing GPS value counts as 0.0 in the lag; a sample without
        # the tenant's actual service has no lag (0.0 until it appears).
        lag = np.where(has_actual, actual - np.where(has_gps, gps, 0.0), 0.0)
        lags: Dict[str, np.ndarray] = {}
        seen = has_actual.any(axis=0)
        if _monotone(has_actual):
            # Every tenant stays once it appears: each lag row is a whole
            # column, zeros before the tenant appeared.
            lag_rows = np.ascontiguousarray(lag.T)
            for tenant, column in self._index.items():
                if seen[column]:
                    lags[tenant] = lag_rows[column]
        else:
            first = np.argmax(has_actual, axis=0)
            for tenant, column in self._index.items():
                if seen[column]:
                    present = lag[has_actual[:, column], column]
                    lags[tenant] = np.concatenate((np.zeros(first[column]), present))
        gini = self._fold_gini(actual)
        return _Folded(
            np.frombuffer(self.times, dtype=float).copy(),
            np.ascontiguousarray(_carry_forward(actual, has_actual).T),
            np.ascontiguousarray(_carry_forward(gps, has_gps).T),
            lags,
            gini,
        )

    def _fold_gini(self, actual: np.ndarray) -> List[Tuple[SimTime, Scalar]]:
        """The Gini index of each sample's weight-normalized interval
        service over the Gini tenants active at it; no sample when none
        is."""
        picked = [k for k, flags in enumerate(self._active) if flags is not None]
        if not picked:
            return []
        width = len(self._gini_tenants)
        # Each Gini tenant's actual column, or the zero column past the
        # last one for a tenant never sampled.
        index = self._index
        zero = actual.shape[1]
        columns = np.fromiter(
            (index.get(tenant, zero) for tenant in self._gini_tenants),
            dtype=np.intp,
            count=width,
        )
        # The previous sample of sample 0 is the baseline.
        before = np.zeros(zero + 1)
        for tenant, value in self.baselines.items():
            if tenant in index:
                before[index[tenant]] = value
        padded = np.zeros((actual.shape[0] + 1, zero + 1))
        padded[0] = before
        padded[1:, :zero] = actual
        served = padded[:, columns]
        rows = np.array(picked, dtype=np.intp)
        if rows.size == actual.shape[0]:
            delta = served[1:] - served[:-1]
        else:
            delta = served[rows + 1] - served[rows]
        values = np.where(delta > 0.0, delta, 0.0) / np.frombuffer(
            self._gini_weights, dtype=float
        )
        flags = [self._active[k] for k in picked]
        lengths = np.fromiter(map(len, flags), dtype=np.intp, count=rows.size)
        active = np.arange(width) < lengths[:, None]
        active[active] = np.frombuffer(b"".join(flags), dtype=bool)
        counts = active.sum(axis=1)
        keep = counts > 0
        offsets = np.concatenate(([0], np.cumsum(counts[keep])))
        indices = gini_rows(values[active], offsets)
        times = np.frombuffer(self.times, dtype=float)[rows[keep]].tolist()
        return list(zip(times, indices))


def _scatter(
    values: List[Any],
    columns: List[Optional["array[int]"]],
    samples: int,
    width: int,
    fill: float = 0.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """A ``samples x width`` matrix of the rows' values at their columns
    (``None``: the first ones), ``fill`` elsewhere, and the mask of the
    cells a row holds.  A ``None`` row of values holds nothing."""
    lengths = np.fromiter(
        (0 if row is None else len(row) for row in values), dtype=np.intp, count=samples
    )
    matrix = np.full((samples, width), fill)
    held = [(row, cols) for row, cols in zip(values, columns) if row is not None]
    flat = np.frombuffer(b"".join([row for row, _ in held]), dtype=float)
    if all(cols is None for _, cols in held):
        # Prefix rows: a boolean mask fills them in row-major order.
        present = np.arange(width) < lengths[:, None]
        matrix[present] = flat
        return matrix, present
    present = np.zeros((samples, width), dtype=bool)
    sample_of = np.repeat(np.arange(samples), lengths)
    column_of = np.concatenate(
        [
            np.arange(len(row)) if cols is None else np.frombuffer(cols, dtype=np.int64)
            for row, cols in held
        ]
    ).astype(np.intp)
    matrix[sample_of, column_of] = flat
    present[sample_of, column_of] = True
    return matrix, present


def _monotone(present: np.ndarray) -> bool:
    """True when no column is present in a row and absent in a later
    one."""
    return not (present[:-1] & ~present[1:]).any()


def _carry_forward(matrix: np.ndarray, present: np.ndarray) -> np.ndarray:
    """``matrix`` with each absent cell after a present one holding that
    column's last present value (cells before the first stay as they
    are: zero)."""
    if _monotone(present):
        return matrix
    samples = matrix.shape[0]
    last = np.where(present, np.arange(samples)[:, None], -1)
    np.maximum.accumulate(last, axis=0, out=last)
    carried = np.take_along_axis(matrix, np.maximum(last, 0), axis=0)
    return np.where(last >= 0, carried, 0.0)


class MetricsPartial:
    """Every statistic of one run: the picklable store behind
    :class:`~repro.metrics.collector.RunMetrics`.

    Writers append straight into ``latencies[tenant]`` and extend
    ``dispatch_log`` (through a :class:`RunRecord`), and the periodic
    samples into ``series``; ``gini`` is folded from ``series``.
    ``dispatch_log`` is flat: each record's
    :data:`~repro.simulator.server.DISPATCH_FIELDS` values in field
    order (:class:`DispatchLog` reads it back as records).
    """

    def __init__(self, sample_interval: Duration) -> None:
        self.sample_interval: Duration = float(sample_interval)
        self.latencies: Dict[str, List[Duration]] = {}
        self.series = ServiceRecorder()
        self.dispatch_log: List[Any] = []

    @property
    def gini(self) -> List[Tuple[SimTime, Scalar]]:
        """The run's ``(time, index)`` Gini samples, in time order."""
        return self.series.gini()
