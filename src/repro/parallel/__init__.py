"""Parallel experiment engine with a content-addressed run cache.

Three pieces (DESIGN.md §10):

* :mod:`repro.parallel.spec` -- picklable simulation *cells*
  (:class:`RunSpec`) and the canonical JSON encoding their cache keys
  hash;
* :mod:`repro.parallel.cache` -- :class:`RunCache`, an on-disk
  content-addressed store keyed by
  ``sha256(canonical spec + repro version + source digest)``;
* :mod:`repro.parallel.engine` -- :func:`run_cells`, the
  ``ProcessPoolExecutor`` fan-out whose index-ordered merge makes
  ``jobs=N`` output bit-identical to serial, and
  :func:`execution_context`, the block-scoped jobs/cache defaults the
  figures CLI and benchmarks use.

Quickstart::

    from repro.parallel import RunCache, execution_context
    from repro.experiments import run_suite

    with execution_context(jobs=4, cache=RunCache("runcache/")):
        result = run_suite(params)   # cells fan out; repeats are free
"""

from .cache import RunCache, source_digest
from .engine import (
    CellFailure,
    ExecutionContext,
    current_execution,
    execution_context,
    run_cells,
)
from .spec import RunSpec, canonicalize

__all__ = [
    "RunSpec",
    "RunCache",
    "canonicalize",
    "source_digest",
    "CellFailure",
    "ExecutionContext",
    "execution_context",
    "current_execution",
    "run_cells",
]
