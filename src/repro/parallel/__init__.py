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
  ``jobs=N`` output bit-identical to serial.

``jobs`` and ``cache`` are explicit keywords, serial and uncached by
default.  Quickstart::

    from repro.parallel import RunCache
    from repro.experiments import run_suite

    result = run_suite(params, jobs=4, cache=RunCache("runcache/"))
"""

from .cache import RunCache, source_digest
from .engine import CellFailure, run_cells
from .spec import RunSpec, canonicalize

__all__ = [
    "RunSpec",
    "RunCache",
    "canonicalize",
    "source_digest",
    "CellFailure",
    "run_cells",
]
