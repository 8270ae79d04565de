"""The RPR1xx dataflow rules.

All five rules consume one shared :class:`~repro.analysis.dataflow.interp.DataflowReport`
-- the abstract interpretation runs once per analyzer invocation (cached
on :attr:`ProjectModel.cache`), and each rule projects out the hazard
kind it owns:

====== ========================== ====================================
code   rule                       hazard kind
====== ========================== ====================================
RPR101 dimension-arithmetic       ``arith``
RPR102 dimension-comparison       ``compare``
RPR103 dimension-boundary         ``boundary``
RPR110 rng-ordering-taint         ``rng_order``
RPR111 wall-clock-taint           ``wall_sim``
====== ========================== ====================================

Because the interpreter needs whole-function bodies and cross-file
summaries, everything happens in ``finish_project``; the per-module
visitor surface is unused.
"""

from __future__ import annotations

from typing import ClassVar

from ..base import Reporter, Rule
from ..dataflow import get_dataflow_report
from ..project import ProjectModel

__all__ = [
    "DimensionArithmeticRule",
    "DimensionComparisonRule",
    "DimensionBoundaryRule",
    "RngOrderingTaintRule",
    "WallClockTaintRule",
]


class _DataflowRule(Rule):
    """Shared shape: report every hazard of :attr:`kind`."""

    #: Hazard kind in the shared report this rule projects out.
    kind: ClassVar[str] = ""

    def finish_project(self, project: ProjectModel, report: Reporter) -> None:
        for hazard in get_dataflow_report(project).by_kind(self.kind):
            report(
                hazard.path,
                hazard.line,
                hazard.col,
                self.code,
                hazard.message,
                self.name,
            )


class DimensionArithmeticRule(_DataflowRule):
    """RPR101: additive arithmetic across incompatible dimensions.

    ``start_tag + now``, ``cost - elapsed`` -- the operands live on
    different axes, so the sum is meaningless no matter the values.
    """

    code = "RPR101"
    name = "dimension-arithmetic"
    description = (
        "no +/-/% across incompatible time/cost dimensions "
        "(sim_time, virtual_time, wall_time, cost, rate, weight)"
    )
    kind = "arith"


class DimensionComparisonRule(_DataflowRule):
    """RPR102: ordering comparison across incompatible dimensions."""

    code = "RPR102"
    name = "dimension-comparison"
    description = (
        "no ordering comparisons across incompatible dimensions "
        "(a virtual-time tag never orders against a sim timestamp)"
    )
    kind = "compare"


class DimensionBoundaryRule(_DataflowRule):
    """RPR103: concrete dimension lost or swapped at an annotated
    boundary -- call argument, return statement, or assignment into an
    annotated variable/attribute."""

    code = "RPR103"
    name = "dimension-boundary"
    description = (
        "arguments, returns, and annotated assignments must match the "
        "declared repro.units dimension"
    )
    kind = "boundary"


class RngOrderingTaintRule(_DataflowRule):
    """RPR110: a seeded-RNG draw flows into ordering-sensitive scheduler
    state (tags, heap keys, scheduler-class comparisons).

    Workload randomness (arrival times, costs) is legitimate; the sink
    set is restricted to scheduler classes precisely so only *dispatch
    order* coupling to RNG stream consumption is flagged.
    """

    code = "RPR110"
    name = "rng-ordering-taint"
    description = (
        "seeded-RNG draws must not reach ordering-sensitive scheduler "
        "state (virtual-time tags, heap keys)"
    )
    kind = "rng_order"


class WallClockTaintRule(_DataflowRule):
    """RPR111: a host-clock-derived value reaches simulated state.

    RPR001 bans the *call sites* in sim packages; this rule follows the
    *value* -- a ``time.monotonic()`` read laundered through telemetry
    into a ``SimTime`` parameter three assignments later.
    """

    code = "RPR111"
    name = "wall-clock-taint"
    description = (
        "host-clock-derived values must never flow into sim_time or "
        "virtual_time state"
    )
    kind = "wall_sim"
