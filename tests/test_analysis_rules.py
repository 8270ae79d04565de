"""Per-rule tests for repro.analysis, driven by seeded fixture trees.

Each fixture directory under ``tests/analysis_fixtures/`` contains a
miniature package with deliberate violations of exactly one rule (plus
nearby compliant code the rule must *not* flag); the tests pin the
expected ``(code, filename, line)`` triples so a rule that drifts --
firing on the wrong node, or going silent -- fails loudly.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from repro.analysis import Analyzer

FIXTURES = os.path.join(os.path.dirname(__file__), "analysis_fixtures")


def findings_in(
    *subdirs: str, code: Optional[str] = None
) -> List[Tuple[str, str, int]]:
    """Sorted (code, filename, line) triples from analyzing fixtures."""
    result = Analyzer().run([os.path.join(FIXTURES, d) for d in subdirs])
    return sorted(
        (f.code, os.path.basename(f.path), f.line)
        for f in result.findings
        if code is None or f.code == code
    )


def test_wallclock_rule_flags_every_clock_flavour() -> None:
    assert findings_in("wallclock") == [
        ("RPR001", "uses_clock.py", 9),   # time.time()
        ("RPR001", "uses_clock.py", 13),  # aliased perf_counter
        ("RPR001", "uses_clock.py", 17),  # from-imported datetime.now
        ("RPR001", "uses_clock.py", 21),  # date.today
    ]


def test_unseeded_rng_rule_and_carveout() -> None:
    # simulator/rng.py constructs generators and must stay clean; every
    # finding lands in bad_random.py.
    assert findings_in("rng") == [
        ("RPR002", "bad_random.py", 3),   # import random
        ("RPR002", "bad_random.py", 4),   # from random import
        ("RPR002", "bad_random.py", 10),  # np.random.random()
        ("RPR002", "bad_random.py", 14),  # np.random.shuffle()
        ("RPR002", "bad_random.py", 18),  # default_rng outside carve-out
    ]


def test_unordered_iteration_rule() -> None:
    assert findings_in("setiter") == [
        ("RPR012", "iterate.py", 5),   # for ... in {literal}
        ("RPR012", "iterate.py", 10),  # comprehension over set()
        ("RPR012", "iterate.py", 14),  # for ... in frozenset()
    ]


def test_fixture_findings_are_disjoint_per_rule() -> None:
    # Each fixture tree violates exactly one rule: analyzing them all at
    # once must produce the union, with no cross-fixture bleed.
    all_at_once = findings_in(
        "wallclock",
        "rng",
        "setiter",
    )
    assert sorted({code for code, _, _ in all_at_once}) == [
        "RPR001",
        "RPR002",
        "RPR012",
    ]
    assert len(all_at_once) == 4 + 5 + 3
