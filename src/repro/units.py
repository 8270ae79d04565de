"""Named aliases for the numeric dimensions of the reproduction.

2DFQ's bookkeeping juggles several *distinct* numeric dimensions that
are all spelled ``float`` at runtime:

========== =========================================================
dimension  meaning
========== =========================================================
SimTime    simulated wallclock seconds (``Simulation.now``)
WallTime   *host* wallclock seconds (``time.time`` and friends --
           banned from simulation logic, present only in telemetry)
VirtualTime the fair-queuing virtual axis ``V(t)`` / tags ``S_f, F_f``
Duration   a length of seconds, valid on either wall axis
Cost       request work in abstract cost units (``Request.cost``)
Rate       service capacity in cost units per second
Weight     tenant share weight ``phi_f`` (its own axis: dividing a
           Cost by a Weight yields *virtual* time, Figure 7 line 23)
Scalar     a pure number: ratios, fractions, speed multipliers
========== =========================================================

The aliases are plain ``float``: they name what a value means in
signatures and attribute declarations, and cost nothing at runtime.
Nothing checks them statically; mixing two dimensions (``start_tag +
now``) moves figure numbers, and the tier-1 goldens catch that
(DESIGN.md §17).

This module is a leaf: it imports nothing, so any package (including
:mod:`repro.core`) can use it without cycles.
"""

from __future__ import annotations

__all__ = [
    "SimTime",
    "WallTime",
    "VirtualTime",
    "Duration",
    "Cost",
    "Rate",
    "Weight",
    "Scalar",
]

SimTime = float
WallTime = float
VirtualTime = float
Duration = float
Cost = float
Rate = float
Weight = float
Scalar = float
