"""CLI feature tests: github output and the default multi-root scan
with per-root rule subsets."""

from __future__ import annotations

import os

from repro.analysis.cli import AUX_RULES, AUX_SCAN_ROOTS, main

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
    assert [cls.code for cls in AUX_RULES] == ["RPR001", "RPR002"]
