"""Determinism rules: RPR001 (wall clock) and RPR002 (unseeded RNG).

The whole reproduction depends on runs being a pure function of their
configuration: the parallel engine's bit-identical serial/parallel
guarantee, the content-addressed run cache, and the golden-trace tests
all assume that re-executing a cell yields byte-identical results.  A
single ``time.time()`` in simulation logic, or one draw from a global
RNG, silently breaks every one of those contracts -- the failure mode
the reproducibility literature on request-cloning models documents.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, Optional, Tuple

from ..base import Rule, RuleContext

__all__ = ["WallClockRule", "UnseededRngRule"]


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportTrackingRule(Rule):
    """Shared machinery: resolve local names through import aliases."""

    node_types: ClassVar[Tuple[type, ...]] = (
        ast.Import,
        ast.ImportFrom,
        ast.Call,
    )

    def start_module(self, ctx: RuleContext) -> None:
        #: local alias -> fully qualified dotted name
        self._aliases: Dict[str, str] = {}

    def _record_import(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                self._aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                self._aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )

    def _resolve(self, node: ast.expr) -> Optional[str]:
        """Fully qualified dotted name of a call target, through aliases."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        full_head = self._aliases.get(head, head)
        return f"{full_head}.{rest}" if rest else full_head


#: Wall-clock reads that make a run irreproducible.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Suffixes matched when the receiver is an imported-from name
#: (``from datetime import datetime; datetime.now()``).
_WALL_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "date.today")


class WallClockRule(_ImportTrackingRule):
    """RPR001: no wall-clock reads anywhere under ``src/repro``.

    Simulated time is :attr:`repro.simulator.clock.Simulation.now`;
    anything derived from the host's clock differs between runs and
    machines.  ``src/repro`` calls no host clock: :mod:`repro.obs.registry`
    holds ``time.perf_counter`` only as a function reference for its
    timers.  The legitimate calls are the benchmarks' host timing, run
    under the CLI's auxiliary pass; each carries an explicit
    ``# repro: ignore[RPR001]`` suppression, which doubles as an
    auditable inventory of every place the host clock is read.
    """

    code: ClassVar[str] = "RPR001"
    name: ClassVar[str] = "wall-clock"

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            self._record_import(node)
            return
        if not isinstance(node, ast.Call):
            return
        target = self._resolve(node.func)
        if target is None:
            return
        if target in _WALL_CLOCK_CALLS or any(
            target == s or target.endswith("." + s) for s in _WALL_CLOCK_SUFFIXES
        ):
            ctx.report(
                self,
                node,
                f"wall-clock call `{target}()` breaks run determinism; "
                "simulated time must come from Simulation.now",
            )


#: numpy.random construction entry points that *are* allowed -- but only
#: inside repro/simulator/rng.py, the single RNG chokepoint.
_NP_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "numpy.random.MT19937",
    }
)


class UnseededRngRule(_ImportTrackingRule):
    """RPR002: all randomness flows from ``repro.simulator.rng.make_rng``.

    Three violation shapes:

    * importing the stdlib :mod:`random` module at all (its global state
      is seeded from the OS, and even ``random.Random(seed)`` bypasses
      the per-component stream derivation ``make_rng`` provides);
    * calling a ``numpy.random`` *module-level* function
      (``np.random.random()``, ``np.random.seed()``, ...), which mutates
      hidden global generator state;
    * constructing a generator (``np.random.default_rng``,
      ``SeedSequence``, bit generators) anywhere other than
      ``repro/simulator/rng.py`` -- new streams must be derived through
      :func:`~repro.simulator.rng.make_rng` so they stay stable under
      component reordering.
    """

    code: ClassVar[str] = "RPR002"
    name: ClassVar[str] = "unseeded-rng"

    def _in_rng_module(self, ctx: RuleContext) -> bool:
        return ctx.parts[-2:] == ("simulator", "rng")

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        if isinstance(node, ast.Import):
            self._record_import(node)
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    ctx.report(
                        self,
                        node,
                        "stdlib `random` is banned: derive a stream with "
                        "repro.simulator.rng.make_rng(seed, *key)",
                    )
            return
        if isinstance(node, ast.ImportFrom):
            self._record_import(node)
            if node.module == "random" and not node.level:
                ctx.report(
                    self,
                    node,
                    "stdlib `random` is banned: derive a stream with "
                    "repro.simulator.rng.make_rng(seed, *key)",
                )
            return
        if not isinstance(node, ast.Call):
            return
        target = self._resolve(node.func)
        if target is None or not target.startswith("numpy.random."):
            return
        if target in _NP_CONSTRUCTORS:
            if not self._in_rng_module(ctx):
                ctx.report(
                    self,
                    node,
                    f"`{target}` outside repro.simulator.rng: new streams "
                    "must be derived via make_rng(seed, *key)",
                )
            return
        member = target.rsplit(".", 1)[1]
        if member[:1].islower():
            # Module-level convenience functions share one hidden global
            # generator; class references (annotations, isinstance) and
            # capitalized constructors were handled above.
            ctx.report(
                self,
                node,
                f"`{target}()` draws from numpy's global RNG state; use a "
                "Generator from repro.simulator.rng.make_rng",
            )
