"""CLI feature tests: baseline delta mode, github output, and the
default multi-root scan with per-root rule subsets."""

from __future__ import annotations

import json
import os

from repro.analysis.cli import AUX_RULE_SUBSET, AUX_SCAN_ROOTS, main

FIXTURES = os.path.join(os.path.dirname(__file__), "analysis_fixtures")


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _mini_tree(root) -> str:
    """A tiny package with two identical RPR001 findings."""
    pkg = os.path.join(str(root), "pkg")
    _write(
        os.path.join(pkg, "timer.py"),
        "import time\n"
        "\n"
        "\n"
        "def stamp() -> float:\n"
        "    return time.time()\n"
        "\n"
        "\n"
        "def stamp_again() -> float:\n"
        "    return time.time()\n",
    )
    return pkg


# -- baselines -----------------------------------------------------------------


def test_baseline_round_trip_suppresses_known_findings(tmp_path, capsys):
    pkg = _mini_tree(tmp_path)
    baseline = str(tmp_path / "baseline.json")
    assert main(["--write-baseline", baseline, pkg]) == 0
    payload = json.loads(open(baseline).read())
    assert payload["version"] == 1
    # two identical findings collapse into one entry of multiplicity 2.
    assert list(payload["entries"].values()) == [2]
    capsys.readouterr()

    assert main(["--baseline", baseline, pkg]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out and "2 baselined" in out


def test_baseline_budget_is_multiplicity_aware(tmp_path, capsys):
    """A baseline entry of multiplicity N absorbs N occurrences; the
    N+1st identical finding in the same file is new and fails the run."""
    pkg = _mini_tree(tmp_path)
    baseline = str(tmp_path / "baseline.json")
    assert main(["--write-baseline", baseline, pkg]) == 0
    with open(os.path.join(pkg, "timer.py"), "a", encoding="utf-8") as fh:
        fh.write("\n\ndef third() -> float:\n    return time.time()\n")
    capsys.readouterr()

    assert main(["--baseline", baseline, pkg]) == 1
    out = capsys.readouterr().out
    assert "1 finding(s)" in out and "2 baselined" in out
    # the surviving finding is the newly appended line.
    assert ":13:" in out


def test_baseline_is_robust_to_pure_line_drift(tmp_path, capsys):
    """Entries are keyed (path, code, message), not line numbers: adding
    a comment above the findings must not resurrect them."""
    pkg = _mini_tree(tmp_path)
    baseline = str(tmp_path / "baseline.json")
    assert main(["--write-baseline", baseline, pkg]) == 0
    source_path = os.path.join(pkg, "timer.py")
    with open(source_path, encoding="utf-8") as fh:
        source = fh.read()
    _write(source_path, "# a comment shifting every line\n" + source)
    capsys.readouterr()

    assert main(["--baseline", baseline, pkg]) == 0


def test_unreadable_baseline_is_a_usage_error(tmp_path):
    pkg = _mini_tree(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    try:
        main(["--baseline", str(bad), pkg])
    except SystemExit as exc:
        assert exc.code == 2
    else:  # pragma: no cover - argparse always raises
        raise AssertionError("expected SystemExit")


# -- github annotations --------------------------------------------------------


def test_github_format_emits_escaped_workflow_commands(tmp_path, capsys):
    pkg = _mini_tree(tmp_path)
    assert main(["--format", "github", pkg]) == 1
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 3  # two errors + the summary notice
    assert lines[0].startswith("::error file=")
    assert "title=RPR001::" in lines[0]
    assert ",line=5," in lines[0]
    assert lines[-1].startswith("::notice title=repro.analysis::")
    assert "2 finding(s)" in lines[-1]


def test_github_format_on_clean_tree(tmp_path, capsys):
    pkg = os.path.join(str(tmp_path), "pkg")
    _write(os.path.join(pkg, "ok.py"), "X = 1\n")
    assert main(["--format", "github", pkg]) == 0
    out = capsys.readouterr().out
    assert "::error" not in out
    assert "0 finding(s)" in out


# -- default roots and per-root subsets ----------------------------------------


def test_default_scan_runs_aux_roots_under_determinism_subset(
    tmp_path, monkeypatch, capsys
):
    """benchmarks/, examples/ and tests/ are scanned for RPR001/RPR002
    hygiene, but structure rules (RPR012) stay scoped to src/repro, and
    the seeded fixture packages are excluded entirely."""
    _write(os.path.join(str(tmp_path), "src", "repro", "mod.py"), "X = 1\n")
    _write(
        os.path.join(str(tmp_path), "benchmarks", "bench_x.py"),
        "def check(x):\n    return [v for v in {x}]\n",  # RPR012 bait: aux-exempt
    )
    _write(
        os.path.join(str(tmp_path), "tests", "test_x.py"),
        "import time\n\n\ndef probe():\n    return time.time()\n",
    )
    _write(
        os.path.join(str(tmp_path), "tests", "analysis_fixtures", "bad.py"),
        "import time\n\n\ndef seeded():\n    return time.time()\n",
    )
    monkeypatch.chdir(tmp_path)
    assert main([]) == 1
    out = capsys.readouterr().out
    assert "test_x.py" in out and "RPR001" in out
    assert "bench_x.py" not in out  # RPR012 does not apply to aux roots
    assert "analysis_fixtures" not in out  # fixtures never scanned


def test_explicit_paths_use_the_full_catalogue(tmp_path, monkeypatch, capsys):
    _write(
        os.path.join(str(tmp_path), "benchmarks", "bench_x.py"),
        "def check(x):\n    return [v for v in {x}]\n",
    )
    monkeypatch.chdir(tmp_path)
    assert main(["benchmarks"]) == 1
    out = capsys.readouterr().out
    assert "RPR012" in out  # explicit path: no aux exemption


def test_aux_constants_shape() -> None:
    assert AUX_SCAN_ROOTS == ("benchmarks", "examples", "tests")
    assert {"RPR001", "RPR002"} <= AUX_RULE_SUBSET
