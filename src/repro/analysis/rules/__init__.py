"""The RPR rule catalogue.

====== ===================== ==============================================
code   rule                  property protected
====== ===================== ==============================================
RPR000 unused-suppression    ``# repro: ignore`` hygiene (engine built-in)
RPR001 wall-clock            determinism: no wall-clock reads in sim logic
RPR002 unseeded-rng          determinism: RNG flows from ``make_rng`` only
RPR012 unordered-iteration   virtual-time hygiene: no set-order-dependent
                             scheduling decisions
RPR090 parse-error           file could not be parsed (engine built-in)
====== ===================== ==============================================

Each rule was audited by planting its violation at live sites and
running tier-1 (DESIGN.md §17).  RPR002 and RPR012 stay because some
plant was missed or caught only under some hash seeds.  RPR001
stays although tier-1 caught its ``src/repro`` plants: it is also the
only guard on the host-clock reads in ``benchmarks/``, whose
``# repro: ignore[RPR001]`` waivers it accounts for.  Rules whose every
plant tier-1 caught were retired, and so was RPR021 once a tier-1 test
caught its plants.  Every rule reads one file at a time.
"""

from __future__ import annotations

from typing import List, Type

from ..base import Rule
from .determinism import UnseededRngRule, WallClockRule
from .hygiene import UnorderedIterationRule

__all__ = [
    "ALL_RULES",
    "WallClockRule",
    "UnseededRngRule",
    "UnorderedIterationRule",
]

#: Every rule class, in catalogue (code) order.
ALL_RULES: List[Type[Rule]] = [
    WallClockRule,
    UnseededRngRule,
    UnorderedIterationRule,
]
