"""On-disk content-addressed cache of simulation results.

``python -m repro.figures`` recomputes identical seeded runs on every
invocation; the suite behind Figure 13 re-runs hundreds of deterministic
cells whenever one parameter moves.  Because every cell is a pure
function of its spec (see :mod:`repro.parallel.spec`), its result can be
stored on disk under a key derived purely from *content*:

    key = sha256(canonical-JSON(cell) + repro.__version__ + source digest)

Cache-invalidation rules (DESIGN.md §10):

* any field of the cell changes -- schedulers, tenant specs, trace,
  seed, duration, estimator params -- the canonical JSON changes;
* the installed ``repro`` version changes;
* any ``.py`` source file of the ``repro`` package changes (the *source
  digest* hashes every module, so a scheduler bug-fix invalidates every
  cached result computed with the buggy code).

Entries are files named by their key: the 32-byte SHA-256 digest of
the pickled result, then the pickle itself.  They are written
atomically (temp file + ``os.replace``) so concurrent writers -- two
figure invocations sharing one cache directory -- can never expose a
torn entry.  A read checks the digest before unpickling, so a
truncated, bit-flipped or otherwise corrupt entry is treated as a miss
and overwritten, never trusted.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .. import __version__
from .spec import canonicalize

__all__ = ["RunCache", "source_digest"]

#: Sentinel distinguishing "no entry" from a cached ``None``.
_MISS = object()

#: Length of the SHA-256 digest that heads every entry.
_DIGEST_SIZE = hashlib.sha256().digest_size


@functools.lru_cache(maxsize=1)
def source_digest() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Computed once per process; any source edit therefore invalidates all
    cache keys, which keeps cached results honest across development.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


class RunCache:
    """Content-addressed store of cell results under one directory."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # -- keys -----------------------------------------------------------------

    def key_for(self, cell: Any) -> str:
        """Stable hex key of a cell (see module docstring for the rules)."""
        canonical = cell.canonical() if hasattr(cell, "canonical") else canonicalize(cell)
        payload = json.dumps(
            {
                "cell": canonical,
                "repro": __version__,
                "source": source_digest(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    # -- storage ----------------------------------------------------------------

    def get(self, key: str) -> Any:
        """The cached result for ``key``, or the module ``_MISS`` sentinel.

        Use :meth:`lookup` for the ``(found, value)`` view.  Missing,
        unreadable and corrupt entries count as misses.
        """
        try:
            data = self._path(key).read_bytes()
            digest, payload = data[:_DIGEST_SIZE], data[_DIGEST_SIZE:]
            if hashlib.sha256(payload).digest() != digest:
                raise ValueError("cache entry fails its checksum")
            value = pickle.loads(payload)
        except Exception:  # noqa: BLE001 -- any unreadable entry is a miss
            self.misses += 1
            return _MISS
        self.hits += 1
        return value

    def lookup(self, key: str) -> tuple[bool, Any]:
        """``(True, result)`` on a hit, ``(False, None)`` on a miss."""
        value = self.get(key)
        if value is _MISS:
            return False, None
        return True, value

    def put(self, key: str, result: Any) -> Path:
        """Store a result atomically; concurrent writers are safe."""
        path = self._path(key)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:12]}-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(payload).digest())
                fh.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    # -- observation -------------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def stats(self) -> Dict[str, int]:
        """JSON-ready hit/miss/store counters plus entries on disk."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "entries": len(self),
        }

    def __repr__(self) -> str:
        return (
            f"RunCache({str(self.directory)!r}, hits={self.hits}, "
            f"misses={self.misses}, stores={self.stores})"
        )


def describe_cache(cache: Optional[RunCache]) -> str:
    """One-line summary for CLI output (empty string when no cache)."""
    if cache is None:
        return ""
    return (
        f"run cache: {cache.hits} hit(s), {cache.misses} miss(es), "
        f"{cache.stores} stored under {cache.directory}"
    )
