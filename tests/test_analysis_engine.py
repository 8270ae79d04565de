"""Engine, suppression, and CLI tests for repro.analysis."""

from __future__ import annotations

import os

import pytest

from repro.analysis import Analyzer
from repro.analysis.cli import AUX_RULES, main
from repro.analysis.engine import PARSE_ERROR_CODE, _module_name
from repro.analysis.rules import UnorderedIterationRule
from repro.analysis.suppress import UNUSED_SUPPRESSION_CODE, SuppressionIndex

FIXTURES = os.path.join(os.path.dirname(__file__), "analysis_fixtures")
SRC_REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


# -- the gate: the real tree is clean ------------------------------------------


def test_real_tree_is_clean() -> None:
    """`python -m repro.analysis src/repro` exits 0: the merged tree has
    no findings under the full catalogue, unused suppressions included."""
    result = Analyzer().run([SRC_REPRO])
    assert result.files_analyzed > 50
    assert result.findings == []
    assert result.clean


# -- suppressions --------------------------------------------------------------


def test_suppression_consumes_matching_finding_and_reports_stale_ones() -> None:
    result = Analyzer().run([os.path.join(FIXTURES, "suppression")])
    triples = sorted((f.code, f.line) for f in result.findings)
    # Line 5's set iteration is silenced (no RPR012 anywhere); lines 10/14/18/22
    # carry a stale, malformed, unknown-code, and stale suppression.
    assert triples == [
        (UNUSED_SUPPRESSION_CODE, 10),
        (UNUSED_SUPPRESSION_CODE, 14),
        (UNUSED_SUPPRESSION_CODE, 18),
        (UNUSED_SUPPRESSION_CODE, 22),
    ]
    by_line = {f.line: f.message for f in result.findings}
    assert "unused suppression" in by_line[10]
    assert "malformed" in by_line[14]
    assert "unknown rule code RPR999" in by_line[18]
    assert "unused suppression" in by_line[22]


def test_suppression_index_ignores_strings_and_matches_codes() -> None:
    source = (
        "x = '# repro: ignore[RPR012]'\n"
        "y = 1  # repro: ignore[RPR001, RPR012]\n"
    )
    index = SuppressionIndex.from_source(source)
    assert len(index) == 1  # the string literal is not a comment
    assert index.suppressed(2, "RPR001")
    assert index.suppressed(2, "RPR012")
    assert not index.suppressed(2, "RPR011")
    assert not index.suppressed(1, "RPR001")


def test_select_distinguishes_filtered_codes_from_unknown_ones() -> None:
    # A run selecting only RPR012 skips line 22's RPR001 suppression,
    # which belongs to a catalogue rule left out of the run, but RPR999
    # on line 18 is claimed by no rule at all, so it stays reported as
    # unknown.
    result = Analyzer([UnorderedIterationRule]).run(
        [os.path.join(FIXTURES, "suppression")]
    )
    assert sorted((f.code, f.line) for f in result.findings) == [
        (UNUSED_SUPPRESSION_CODE, 10),
        (UNUSED_SUPPRESSION_CODE, 14),
        (UNUSED_SUPPRESSION_CODE, 18),
    ]
    by_line = {f.line: f.message for f in result.findings}
    assert "unknown rule code RPR999" in by_line[18]


def test_ignore_disables_a_rule() -> None:
    # The CLI's auxiliary pass leaves RPR012 out: its set iteration is
    # not flagged, while RPR001 still is.
    paths = [os.path.join(FIXTURES, d) for d in ("setiter", "wallclock")]
    result = Analyzer(AUX_RULES).run(paths)
    assert {f.code for f in result.findings} == {"RPR001"}
    assert len(result.findings) == 4


# -- engine mechanics ----------------------------------------------------------


def test_parse_error_is_reported_not_raised(tmp_path) -> None:
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n", encoding="utf-8")
    result = Analyzer().run([str(bad)])
    assert [f.code for f in result.findings] == [PARSE_ERROR_CODE]
    assert result.files_analyzed == 1


def test_module_name_walks_init_chain(tmp_path) -> None:
    pkg = tmp_path / "outer" / "inner"
    pkg.mkdir(parents=True)
    (tmp_path / "outer" / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "mod.py").write_text("", encoding="utf-8")
    assert _module_name(str(pkg / "mod.py")) == "outer.inner.mod"
    assert _module_name(str(pkg / "__init__.py")) == "outer.inner"
    # tmp_path itself has no __init__.py, so the walk stops there.
    assert _module_name(str(tmp_path / "outer" / "__init__.py")) == "outer"


def test_findings_are_sorted_and_deterministic() -> None:
    paths = [os.path.join(FIXTURES, d) for d in ("setiter", "wallclock", "rng")]
    first = Analyzer().run(paths)
    second = Analyzer().run(list(reversed(paths)))
    assert [f.sort_key for f in first.findings] == sorted(
        f.sort_key for f in first.findings
    )
    assert first.findings == second.findings


# -- CLI -----------------------------------------------------------------------


def test_cli_exit_codes_and_text_output(capsys) -> None:
    assert main([SRC_REPRO]) == 0
    out = capsys.readouterr().out
    assert "clean:" in out and "0 findings" in out

    assert main([os.path.join(FIXTURES, "setiter")]) == 1
    out = capsys.readouterr().out
    assert "RPR012" in out
    assert "iterate.py:5:" in out
    assert "3 finding(s)" in out


def test_cli_rejects_missing_path() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["does/not/exist"])
    assert exc.value.code == 2
