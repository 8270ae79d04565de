"""Command-line interface: ``python -m repro.analysis``.

Examples::

    python -m repro.analysis                    # src/repro + aux roots
    python -m repro.analysis src/repro --format json
    python -m repro.analysis --select RPR001,RPR012 src/repro
    python -m repro.analysis --write-baseline analysis-baseline.json
    python -m repro.analysis --baseline analysis-baseline.json
    python -m repro.analysis --format github
    python -m repro.analysis --list-rules

Scan roots
----------
With no explicit paths, ``src/repro`` is analyzed under the full rule
catalogue, and the auxiliary roots (``benchmarks/``, ``examples/``,
``tests/``) are analyzed under the determinism subset only
(:data:`AUX_RULE_SUBSET`): wall-clock and unseeded-RNG hygiene matter
everywhere a simulation can be driven from, but structure rules are
scoped to the library source.  The seeded-violation fixture packages
under ``tests/analysis_fixtures/`` are excluded -- they exist to
*contain* findings.

Baselines
---------
``--write-baseline FILE`` records the current findings; ``--baseline
FILE`` then subtracts them on later runs so the rules are strict on new
code only.  Baseline entries are keyed ``(path, code, message)`` with
multiplicity -- robust against pure line drift, while a new instance of
an already-known hazard class in the same file still surfaces.

Exit status: 0 when clean (after baseline subtraction), 1 when findings
were reported, 2 on usage errors -- so the CI lint job is a single
invocation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import PARSE_ERROR_CODE, AnalysisResult, Analyzer, collect_files
from .findings import Finding
from .rules import rule_catalogue
from .suppress import UNUSED_SUPPRESSION_CODE

__all__ = ["main", "AUX_SCAN_ROOTS", "AUX_RULE_SUBSET"]

#: Default auxiliary scan roots (analyzed when present).
AUX_SCAN_ROOTS = ("benchmarks", "examples", "tests")

#: Rules applied to the auxiliary roots: determinism hygiene (wall-clock
#: reads, unseeded RNG) plus the engine built-ins (suppression bookkeeping
#: and parse errors).  Everything else is library-source-only.
AUX_RULE_SUBSET = frozenset(
    {"RPR001", "RPR002", UNUSED_SUPPRESSION_CODE, PARSE_ERROR_CODE}
)

#: Directory name (under tests/) holding intentional seeded violations.
FIXTURE_DIR_NAME = "analysis_fixtures"


def _parse_codes(values: List[str]) -> Set[str]:
    codes: Set[str] = set()
    for value in values:
        codes.update(c.strip() for c in value.split(",") if c.strip())
    return codes


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Simulation-safety static analysis: determinism and scheduler "
            "conformance rules for the repro codebase (DESIGN.md §12)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to analyze (default: src/repro under the "
            "full catalogue, plus benchmarks/, examples/, tests/ under the "
            "determinism subset)"
        ),
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="CODES",
        help="comma-separated rule codes to run exclusively (repeatable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="CODES",
        help="comma-separated rule codes to skip (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help=(
            "output format (default: text; github emits workflow-command "
            "annotations for the CI lint job)"
        ),
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help=(
            "subtract the findings recorded in FILE; only findings beyond "
            "the baseline are reported and affect the exit status"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="record the current findings into FILE and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
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


def _baseline_key(finding: Finding) -> Tuple[str, str, str]:
    return (finding.path.replace(os.sep, "/"), finding.code, finding.message)


def _write_baseline(path: str, result: AnalysisResult) -> None:
    entries: Dict[str, int] = {}
    for finding in result.findings:
        key = json.dumps(_baseline_key(finding))
        entries[key] = entries.get(key, 0) + 1
    payload = {
        "version": 1,
        "comment": (
            "repro.analysis baseline: known findings keyed "
            "(path, code, message) with multiplicity; regenerate with "
            "`python -m repro.analysis --write-baseline <file>`"
        ),
        "entries": entries,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_baseline(path: str) -> Dict[str, int]:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError(f"not a baseline file: {path}")
    entries = payload["entries"]
    if not isinstance(entries, dict):
        raise ValueError(f"baseline entries must be an object: {path}")
    return {str(k): int(v) for k, v in entries.items()}


def _apply_baseline(
    result: AnalysisResult, baseline: Dict[str, int]
) -> Tuple[List[Finding], int]:
    """(new findings, count suppressed by the baseline).

    Budgeted subtraction: a baseline entry with multiplicity N absorbs
    the first N occurrences of that (path, code, message) key; the
    N+1st is a *new* finding and is reported.
    """
    budget = dict(baseline)
    fresh: List[Finding] = []
    suppressed = 0
    for finding in result.findings:
        key = json.dumps(_baseline_key(finding))
        if budget.get(key, 0) > 0:
            budget[key] -= 1
            suppressed += 1
        else:
            fresh.append(finding)
    return fresh, suppressed


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

    if args.list_rules:
        catalogue = dict(rule_catalogue())
        catalogue[UNUSED_SUPPRESSION_CODE] = (
            "unused-suppression: `# repro: ignore` comment that silenced "
            "nothing (engine built-in)"
        )
        catalogue[PARSE_ERROR_CODE] = (
            "parse-error: file could not be parsed (engine built-in)"
        )
        for code in sorted(catalogue):
            print(f"{code}  {catalogue[code]}")
        return 0

    select = _parse_codes(args.select) or None
    ignore = _parse_codes(args.ignore) or None

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

    analyzer = Analyzer(select=select, ignore=ignore)
    result = (
        analyzer.run(primary) if primary else AnalysisResult()
    )

    if aux:
        aux_select = AUX_RULE_SUBSET if select is None else (
            AUX_RULE_SUBSET & select
        )
        aux_files = _aux_files(aux)
        if aux_select and aux_files:
            aux_result = Analyzer(select=aux_select, ignore=ignore).run(
                aux_files
            )
            result.findings.extend(aux_result.findings)
            result.files_analyzed += aux_result.files_analyzed
            result.findings.sort(key=lambda f: f.sort_key)

    if args.write_baseline:
        _write_baseline(args.write_baseline, result)
        print(
            f"baseline written: {args.write_baseline} "
            f"({len(result.findings)} finding(s))"
        )
        return 0

    suppressed = 0
    reportable = result.findings
    if args.baseline:
        try:
            baseline = _load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read baseline: {exc}")
        reportable, suppressed = _apply_baseline(result, baseline)

    if args.format == "json":
        payload = result.to_dict()
        if args.baseline:
            payload["findings"] = [f.to_dict() for f in reportable]
            counts: Dict[str, int] = {}
            for finding in reportable:
                counts[finding.code] = counts.get(finding.code, 0) + 1
            payload["counts"] = dict(sorted(counts.items()))
            payload["baseline_suppressed"] = suppressed
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "github":
        for finding in reportable:
            print(_github_annotation(finding))
        summary = (
            f"{len(reportable)} finding(s) in {result.files_analyzed} file(s)"
        )
        if args.baseline:
            summary += f", {suppressed} baselined"
        print(f"::notice title=repro.analysis::{summary}")
    else:
        for finding in reportable:
            print(finding.format_text())
        if reportable:
            counts = {}
            for finding in reportable:
                counts[finding.code] = counts.get(finding.code, 0) + 1
            breakdown = ", ".join(
                f"{c}: {n}" for c, n in sorted(counts.items())
            )
            tail = f", {suppressed} baselined" if args.baseline else ""
            print(
                f"{len(reportable)} finding(s) in "
                f"{result.files_analyzed} file(s) ({breakdown}){tail}"
            )
        else:
            tail = f", {suppressed} baselined" if args.baseline else ""
            print(
                f"clean: {result.files_analyzed} file(s), "
                f"{len(analyzer.rules)} rule(s), 0 findings{tail}"
            )
    return 1 if reportable else 0


if __name__ == "__main__":
    sys.exit(main())
