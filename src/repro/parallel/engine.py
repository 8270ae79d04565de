"""Process-pool execution engine for independent simulation cells.

The paper's headline evaluation aggregates hundreds of independent
seeded simulations (the Figure 13 suite alone is experiments x
schedulers cells).  Every cell is a pure function of its picklable spec
(:mod:`repro.parallel.spec`), so the engine can fan cells out over a
``concurrent.futures.ProcessPoolExecutor`` and merge results **by cell
index**: output with ``jobs=N`` is bit-identical to serial execution
for any ``N``, regardless of completion order.

Layered on top is the content-addressed :class:`~repro.parallel.cache.RunCache`:
cells whose key is already stored are never executed, which turns warm
figure regeneration into pure deserialization.

Failure policy (DESIGN.md §11)
------------------------------
A failing cell is always *attributable*: worker exceptions are wrapped
in :class:`~repro.errors.CellExecutionError` carrying the cell index
and the cell object (the original exception is ``__cause__``).  Each
cell runs once.  ``on_error`` picks what a failure does:

* ``"raise"`` (the default) -- fail fast: the first failure cancels the
  cells still queued and propagates;
* ``"quarantine"`` -- failed cells yield :class:`CellFailure`
  placeholders (never cached) while every other cell's result is still
  returned; under an active trace session each quarantined cell is
  recorded as a run directory whose ``manifest.json`` carries an
  ``errors`` block.

Trace-session semantics (DESIGN.md §10)
---------------------------------------
Tracing runs in-process and recomputes: a
:class:`~repro.obs.session.TraceSession` is process-global state whose
artifacts are written by the run it observes.  The contract is:

* ``jobs > 1`` or a ``cache`` while a trace session is active raises
  :class:`~repro.errors.ConfigurationError` -- a pool worker could not
  write the artifacts and a cache hit has none, and a silently partial
  trace would be worse than an error (the figures CLI rejects
  ``--cache`` with ``--trace``/``--audit`` up front);
* pool workers always start with tracing *disabled* -- the worker
  initializer clears any session inherited through ``fork``, so a
  worker can never write trace artifacts or attach tracers.

``jobs`` and ``cache`` are explicit arguments of :func:`run_cells` and
of the entry points that forward to it (``run_comparison``,
``run_suite``); their defaults are serial and uncached.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import CellExecutionError, ConfigurationError
from ..obs.session import clear_session, current_session
from .cache import RunCache

__all__ = ["run_cells", "CellFailure"]

_ON_ERROR = ("raise", "quarantine")


@dataclasses.dataclass(frozen=True)
class CellFailure:
    """Quarantine placeholder returned for a failed cell.

    Appears in :func:`run_cells` results (``on_error="quarantine"``)
    at the failed cell's index, so downstream merges stay positional.
    Failures are never written to the run cache.
    """

    index: int
    label: str
    error_type: str
    error: str

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


def _worker_init() -> None:
    """Pool-worker initializer: force tracing off in the worker.

    Workers inherit the parent's module globals under the ``fork``
    start method; an inherited :class:`TraceSession` would make workers
    write trace artifacts concurrently.  DESIGN.md §10: tracing is
    disabled in workers, period.
    """
    clear_session()


def _run_cell(cell: Any) -> Any:
    """Execute one cell in a pool worker (module-level for pickling)."""
    clear_session()  # belt and braces alongside the initializer
    return cell.execute()


def run_cells(
    cells: Sequence[Any],
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    on_error: str = "raise",
) -> List[Any]:
    """Execute independent cells, in parallel and/or from cache.

    Parameters
    ----------
    cells:
        Picklable objects with an ``execute()`` method (and dataclass
        fields, for cache keying) -- see :mod:`repro.parallel.spec`.
    jobs:
        Worker-process count (default 1 = serial, in-process).
    cache:
        A :class:`RunCache`, or ``None`` (the default) for no cache.
    on_error:
        ``"raise"`` (default): the first failure cancels the cells still
        queued and raises :class:`~repro.errors.CellExecutionError`.
        ``"quarantine"``: failed cells yield :class:`CellFailure`
        placeholders and every other result is still returned.

    Returns the cells' results **in cell order** -- the deterministic
    merge that makes parallel output identical to serial output.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if on_error not in _ON_ERROR:
        raise ConfigurationError(
            f"on_error must be one of {_ON_ERROR}, got {on_error!r}"
        )
    session = current_session()
    if session is not None and (jobs > 1 or cache is not None):
        raise ConfigurationError(
            "a trace session needs jobs=1 and cache=None: pool workers run "
            "with tracing disabled and a cache hit is not re-simulated, so "
            "either would leave the trace silently partial"
        )

    results: List[Any] = [None] * len(cells)
    keys: List[Optional[str]] = [None] * len(cells)
    pending: List[int] = []
    for index, cell in enumerate(cells):
        if cache is not None:
            key = cache.key_for(cell)
            keys[index] = key
            found, value = cache.lookup(key)
            if found:
                results[index] = value
                continue
        pending.append(index)

    if not pending:
        return results

    def fail(index: int, exc: BaseException) -> None:
        cell = cells[index]
        if on_error == "raise":
            raise CellExecutionError(index, cell, str(exc)) from exc
        failure = CellFailure(
            index=index,
            label=_cell_label(cell),
            error_type=type(exc).__name__,
            error=str(exc),
        )
        results[index] = failure
        if session is not None:
            session.export_failed_cell(failure, cell=cell)

    if jobs == 1:
        for index in pending:
            try:
                results[index] = cells[index].execute()
            except Exception as exc:  # noqa: BLE001 -- policy boundary
                fail(index, exc)
    else:
        _run_pool(cells, pending, results, jobs=jobs, fail=fail)

    if cache is not None:
        for index in pending:
            key = keys[index]
            if key is not None and not isinstance(results[index], CellFailure):
                cache.put(key, results[index])
    return results


def _run_pool(
    cells: Sequence[Any],
    pending: Sequence[int],
    results: List[Any],
    *,
    jobs: int,
    fail: Callable[[int, BaseException], None],
) -> None:
    """Fan pending cells over a process pool, recording each result as
    it completes.  When ``fail`` raises, the pool shuts down with the
    cells still queued cancelled, so fail-fast stops promptly."""
    workers = min(jobs, len(pending))
    executor = ProcessPoolExecutor(max_workers=workers, initializer=_worker_init)
    try:
        futures = {
            executor.submit(_run_cell, cells[index]): index for index in pending
        }
        for future in as_completed(futures):
            index = futures[future]
            exc = future.exception()
            if exc is None:
                results[index] = future.result()
            else:
                fail(index, exc)
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def _cell_label(cell: Any) -> str:
    label = getattr(cell, "label", None)
    if callable(label):
        return str(label())
    return type(cell).__name__
