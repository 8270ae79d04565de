"""Engine, suppression, and CLI tests for repro.analysis."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import Analyzer
from repro.analysis.cli import main
from repro.analysis.engine import PARSE_ERROR_CODE, _module_name
from repro.analysis.suppress import UNUSED_SUPPRESSION_CODE, SuppressionIndex

FIXTURES = os.path.join(os.path.dirname(__file__), "analysis_fixtures")
SRC_REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


# -- the gate: the real tree is clean ------------------------------------------


def test_real_tree_is_clean() -> None:
    """`python -m repro.analysis src/repro` exits 0: the merged tree has
    no findings under the full catalogue (including unused-suppression
    accounting for the inventoried wall-clock waivers)."""
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
    # Under --select RPR012 the RPR001 suppression on line 22 belongs to
    # a filtered-out catalogue rule and is skipped, but RPR999 on line 18
    # is claimed by no rule at all, so it stays reported as unknown.
    result = Analyzer(select={"RPR012", UNUSED_SUPPRESSION_CODE}).run(
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
    result = Analyzer(ignore={"RPR021", UNUSED_SUPPRESSION_CODE}).run(
        [os.path.join(FIXTURES, "tracer")]
    )
    assert result.findings == []


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


def test_result_to_dict_shape() -> None:
    result = Analyzer().run([os.path.join(FIXTURES, "tracer")])
    payload = result.to_dict()
    assert payload["version"] == 1
    assert payload["counts"] == {"RPR021": 1}
    (record,) = payload["findings"]
    assert record["code"] == "RPR021"
    assert record["line"] == 25
    assert record["rule"] == "tracer-pairing"


def test_findings_are_sorted_and_deterministic() -> None:
    paths = [os.path.join(FIXTURES, d) for d in ("tracer", "wallclock", "rng")]
    first = Analyzer().run(paths)
    second = Analyzer().run(list(reversed(paths)))
    assert [f.sort_key for f in first.findings] == sorted(
        f.sort_key for f in first.findings
    )
    assert [f.to_dict() for f in first.findings] == [
        f.to_dict() for f in second.findings
    ]


# -- CLI -----------------------------------------------------------------------


def test_cli_exit_codes_and_text_output(capsys) -> None:
    assert main([SRC_REPRO]) == 0
    out = capsys.readouterr().out
    assert "clean:" in out and "0 findings" in out

    assert main([os.path.join(FIXTURES, "tracer")]) == 1
    out = capsys.readouterr().out
    assert "RPR021" in out
    assert "vt.py:25:" in out
    assert "1 finding(s)" in out


def test_cli_json_output(capsys) -> None:
    assert main(["--format", "json", os.path.join(FIXTURES, "tracer")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"RPR021": 1}


def test_cli_select_filters_rules(capsys) -> None:
    # wallclock fixture has only RPR001 findings; selecting RPR021 runs
    # nothing that fires there.
    assert main(["--select", "RPR021", os.path.join(FIXTURES, "wallclock")]) == 0
    capsys.readouterr()


def test_cli_list_rules(capsys) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "RPR000",
        "RPR001",
        "RPR002",
        "RPR012",
        "RPR021",
        "RPR090",
    ):
        assert code in out


def test_cli_rejects_missing_path() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["does/not/exist"])
    assert exc.value.code == 2
