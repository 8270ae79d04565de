"""Simulation-safety static analysis for the repro codebase.

Every result this repository produces rests on properties the runtime
watchdog (:mod:`repro.validate`) can only check *per run*: determinism
(all randomness flows from :func:`repro.simulator.rng.make_rng`, never
from wall clocks, global RNG state or set iteration order).  This
package checks that property *statically*, over the AST, for the
hazards the tier-1 tests do not catch deterministically (DESIGN.md
§17).

The framework is a small visitor-based plugin system:

* a :class:`~repro.analysis.base.Rule` declares the AST node types it
  wants and reports :class:`~repro.analysis.findings.Finding` objects
  with a stable per-rule code (``RPR0xx``);
* the :class:`~repro.analysis.engine.Analyzer` parses each file once,
  dispatches nodes to the interested rules, and applies the file's
  inline ``# repro: ignore[RPR0xx]`` suppressions (an unused
  suppression is itself a finding, ``RPR000``);
* ``python -m repro.analysis`` runs the whole catalogue from the command
  line (text or GitHub-annotation output, nonzero exit on findings) and
  gates CI.

See DESIGN.md §12 for the rule catalogue and how to add a rule.
"""

from __future__ import annotations

from .base import Rule, RuleContext
from .engine import AnalysisResult, Analyzer
from .findings import Finding
from .rules import ALL_RULES

__all__ = [
    "Analyzer",
    "AnalysisResult",
    "Finding",
    "Rule",
    "RuleContext",
    "ALL_RULES",
]
