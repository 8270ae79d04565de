"""Command-line interface: ``python -m repro.analysis``.

Examples::

    python -m repro.analysis                    # src/repro + aux roots
    python -m repro.analysis src/repro          # explicit paths
    python -m repro.analysis --format github    # CI inline annotations

Scan roots
----------
With no explicit paths, ``src/repro`` is analyzed under the full rule
catalogue, and the auxiliary roots (``benchmarks/``, ``examples/``,
``tests/``) are analyzed under the determinism pair only
(:data:`AUX_RULES`): wall-clock and unseeded-RNG hygiene matter
everywhere a simulation can be driven from, but structure rules are
scoped to the library source.  The seeded-violation fixture packages
under ``tests/analysis_fixtures/`` are excluded -- they exist to
*contain* findings.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage
errors -- so the CI lint job is a single invocation.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple, Type

from .base import Rule
from .engine import AnalysisResult, Analyzer, collect_files
from .findings import Finding
from .rules import UnseededRngRule, WallClockRule

__all__ = ["main", "AUX_SCAN_ROOTS", "AUX_RULES"]

#: Default auxiliary scan roots (analyzed when present).
AUX_SCAN_ROOTS = ("benchmarks", "examples", "tests")

#: Rules applied to the auxiliary roots: determinism hygiene (wall-clock
#: reads, unseeded RNG), plus the engine built-ins every run has.
#: Everything else is library-source-only.
AUX_RULES: Tuple[Type[Rule], ...] = (WallClockRule, UnseededRngRule)

#: Directory name (under tests/) holding intentional seeded violations.
FIXTURE_DIR_NAME = "analysis_fixtures"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Simulation-safety static analysis: determinism rules for the "
            "repro codebase (DESIGN.md §12)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to analyze (default: src/repro under the "
            "full catalogue, plus benchmarks/, examples/, tests/ under the "
            "determinism pair)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "github"),
        default="text",
        help=(
            "output format (default: text; github emits workflow-command "
            "annotations for the CI lint job)"
        ),
    )
    return parser


def _default_roots() -> Tuple[List[str], List[str]]:
    """(primary roots, auxiliary roots) for a no-argument invocation."""
    primary: List[str] = []
    candidate = os.path.join("src", "repro")
    if os.path.isdir(candidate):
        primary.append(candidate)
    aux = [root for root in AUX_SCAN_ROOTS if os.path.isdir(root)]
    return primary, aux


def _is_fixture_path(path: str) -> bool:
    return FIXTURE_DIR_NAME in os.path.normpath(path).split(os.sep)


def _aux_files(aux_roots: Sequence[str]) -> List[str]:
    """Auxiliary files to scan, minus the seeded-violation fixtures."""
    return [f for f in collect_files(aux_roots) if not _is_fixture_path(f)]


def _github_annotation(finding: Finding) -> str:
    # Workflow-command escaping: %, CR and LF in the free-text message.
    message = (
        finding.message.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )
    return (
        f"::error file={finding.path},line={finding.line},"
        f"col={finding.col},title={finding.code}::{message}"
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.paths:
        for path in args.paths:
            if not os.path.exists(path):
                parser.error(f"path does not exist: {path}")
        primary: List[str] = list(args.paths)
        aux: List[str] = []
    else:
        primary, aux = _default_roots()
        if not primary and not aux:
            parser.error("no paths given and src/repro not found")

    analyzer = Analyzer()
    result = analyzer.run(primary) if primary else AnalysisResult()

    aux_files = _aux_files(aux)
    if aux_files:
        aux_result = Analyzer(AUX_RULES).run(aux_files)
        result.findings.extend(aux_result.findings)
        result.files_analyzed += aux_result.files_analyzed
        result.findings.sort(key=lambda f: f.sort_key)

    findings = result.findings
    if args.format == "github":
        for finding in findings:
            print(_github_annotation(finding))
        print(
            f"::notice title=repro.analysis::{len(findings)} finding(s) "
            f"in {result.files_analyzed} file(s)"
        )
    elif findings:
        counts: Dict[str, int] = {}
        for finding in findings:
            print(finding.format_text())
            counts[finding.code] = counts.get(finding.code, 0) + 1
        breakdown = ", ".join(f"{c}: {n}" for c, n in sorted(counts.items()))
        print(
            f"{len(findings)} finding(s) in "
            f"{result.files_analyzed} file(s) ({breakdown})"
        )
    else:
        print(
            f"clean: {result.files_analyzed} file(s), "
            f"{len(analyzer.rules)} rule(s), 0 findings"
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
