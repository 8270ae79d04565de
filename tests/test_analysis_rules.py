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


def test_float_equality_rule_is_scoped_to_core_packages() -> None:
    # outside.py holds identical comparisons outside a `core` package
    # and must not appear.
    assert findings_in("floateq") == [
        ("RPR010", "tags.py", 5),   # tag == tag
        ("RPR010", "tags.py", 9),   # x != 0.0
        ("RPR010", "tags.py", 13),  # division result ==
    ]


def test_frozen_request_field_rule() -> None:
    assert findings_in("frozenfield") == [
        ("RPR011", "mutate.py", 5),   # request.cost =
        ("RPR011", "mutate.py", 9),   # req.seqno +=
        ("RPR011", "mutate.py", 13),  # <x>.queue[0].tenant_id =
        ("RPR011", "mutate.py", 17),  # annotated assign to .api
    ]


def test_unordered_iteration_rule() -> None:
    assert findings_in("setiter") == [
        ("RPR012", "iterate.py", 5),   # for ... in {literal}
        ("RPR012", "iterate.py", 10),  # comprehension over set()
        ("RPR012", "iterate.py", 14),  # for ... in frozenset()
    ]


def test_scheduler_surface_rule() -> None:
    assert findings_in("conformance") == [
        ("RPR020", "bad.py", 6),      # NoDequeueScheduler: abstract dequeue
        ("RPR020", "bad.py", 13),     # StubCancelScheduler: stub cancel
        ("RPR020", "registry.py", 6),  # GhostScheduler unresolved
    ]


def test_scheduler_surface_messages_name_the_missing_method() -> None:
    result = Analyzer().run([os.path.join(FIXTURES, "conformance")])
    by_line = {
        (os.path.basename(f.path), f.line): f.message for f in result.findings
    }
    assert "`dequeue`" in by_line[("bad.py", 6)]
    assert "`cancel`" in by_line[("bad.py", 13)]
    assert "GhostScheduler" in by_line[("registry.py", 6)]


def test_tracer_pairing_rule() -> None:
    # Only SilentScheduler.complete drops its event; the root class, the
    # super()-deferring and _trace-referencing overrides, and the class
    # outside the framework are all compliant.
    assert findings_in("tracer") == [
        ("RPR021", "vt.py", 25),
    ]


def test_index_surface_rule() -> None:
    # The root, both compliant pairings (own and inherited
    # _select_indexed), and the class outside the framework are silent;
    # only the half-surface fires.
    assert findings_in("indexsurface") == [
        ("RPR022", "vt.py", 34),  # _index_spec without _select_indexed
    ]


def test_index_surface_messages_name_the_missing_half() -> None:
    result = Analyzer().run([os.path.join(FIXTURES, "indexsurface")])
    by_line = {
        (os.path.basename(f.path), f.line): f.message for f in result.findings
    }
    assert "`_select_indexed`" in by_line[("vt.py", 34)]


def test_runtime_assert_rule() -> None:
    assert findings_in("purity") == [
        ("RPR030", "asserts.py", 5),
    ]


def test_fixture_findings_are_disjoint_per_rule() -> None:
    # Each fixture tree violates exactly one rule: analyzing them all at
    # once must produce the union, with no cross-fixture bleed (e.g. the
    # conformance mini-schedulers must not trip RPR021).
    all_at_once = findings_in(
        "wallclock",
        "rng",
        "floateq",
        "frozenfield",
        "setiter",
        "conformance",
        "tracer",
        "indexsurface",
        "purity",
    )
    assert sorted({code for code, _, _ in all_at_once}) == [
        "RPR001",
        "RPR002",
        "RPR010",
        "RPR011",
        "RPR012",
        "RPR020",
        "RPR021",
        "RPR022",
        "RPR030",
    ]
    assert len(all_at_once) == 4 + 5 + 3 + 4 + 3 + 3 + 1 + 1 + 1
