"""The analyzer: file collection, single-pass dispatch, suppressions.

One :class:`Analyzer` run parses every ``.py`` file under the given
paths exactly once, walks each tree once while dispatching nodes to the
rules that declared interest in their type, accumulates the cross-file
:class:`~repro.analysis.project.ProjectModel`, runs the project-level
rules, and finally applies inline suppressions -- reporting any
suppression that silenced nothing (``RPR000``) and any file that failed
to parse (``RPR090``).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from .base import Rule, RuleContext
from .findings import Finding
from .project import ProjectModel
from .rules import ALL_RULES
from .suppress import UNUSED_SUPPRESSION_CODE, SuppressionIndex

__all__ = ["Analyzer", "AnalysisResult", "PARSE_ERROR_CODE"]

#: Code under which unparseable files are reported.
PARSE_ERROR_CODE = "RPR090"


@dataclass
class AnalysisResult:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files_analyzed": self.files_analyzed,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts_by_code(),
        }


def _module_name(path: str) -> str:
    """Dotted module name, walking up while ``__init__.py`` exists.

    ``src/repro/core/vt_base.py`` -> ``repro.core.vt_base``;
    a fixture tree's ``core/bad.py`` -> ``core.bad``.
    """
    abspath = os.path.abspath(path)
    directory, filename = os.path.split(abspath)
    stem = os.path.splitext(filename)[0]
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        if not pkg:
            break
        parts.append(pkg)
    return ".".join(reversed(parts))


def collect_files(paths: Sequence[str]) -> List[str]:
    """All ``.py`` files under ``paths``, sorted for deterministic output."""
    files: Set[str] = set()
    for path in paths:
        if os.path.isfile(path):
            files.add(path)
        else:
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for name in filenames:
                    if name.endswith(".py"):
                        files.add(os.path.join(dirpath, name))
    return sorted(files)


class Analyzer:
    """Run a rule catalogue over a set of files.

    Parameters
    ----------
    rules:
        Rule *classes* to instantiate (default: the full catalogue).
    select:
        If given, only rules whose code is in this set run.
    ignore:
        Rules whose code is in this set are skipped (applied after
        ``select``).  The built-in ``RPR000``/``RPR090`` pseudo-rules
        honor both switches too.
    """

    def __init__(
        self,
        rules: Optional[Iterable[Type[Rule]]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ) -> None:
        self._select = set(select) if select is not None else None
        self._ignore = set(ignore) if ignore is not None else set()
        catalogue = list(rules if rules is not None else ALL_RULES)
        #: every code some catalogue rule (or pseudo-rule) claims,
        #: regardless of --select/--ignore filtering -- so suppressions
        #: naming a merely-disabled rule are distinguishable from typos.
        self._catalogue_codes: Set[str] = {cls.code for cls in catalogue} | {
            UNUSED_SUPPRESSION_CODE,
            PARSE_ERROR_CODE,
        }
        self._rules: List[Rule] = [
            cls() for cls in catalogue if self._enabled(cls.code)
        ]
        #: node type -> rules wanting it (built once; isinstance handles
        #: subclass declarations like a rule asking for ast.stmt).
        self._dispatch: List[Tuple[Tuple[type, ...], Rule]] = [
            (rule.node_types, rule) for rule in self._rules if rule.node_types
        ]

    def _enabled(self, code: str) -> bool:
        if self._select is not None and code not in self._select:
            return False
        return code not in self._ignore

    @property
    def rules(self) -> List[Rule]:
        return list(self._rules)

    # -- execution ---------------------------------------------------------

    def run(self, paths: Sequence[str]) -> AnalysisResult:
        result = AnalysisResult()
        project = ProjectModel()
        modules: List[Tuple[RuleContext, SuppressionIndex]] = []

        for path in collect_files(paths):
            result.files_analyzed += 1
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    source = fh.read()
                tree = ast.parse(source, filename=path)
            except (SyntaxError, ValueError, UnicodeDecodeError, OSError) as exc:
                if self._enabled(PARSE_ERROR_CODE):
                    line = getattr(exc, "lineno", None) or 1
                    result.findings.append(
                        Finding(
                            code=PARSE_ERROR_CODE,
                            message=f"file could not be analyzed: {exc}",
                            path=path,
                            line=int(line),
                            rule="parse-error",
                        )
                    )
                continue
            ctx = RuleContext(path, _module_name(path), tree)
            suppressions = SuppressionIndex.from_source(source)
            project.add_module(tree, ctx.module, path)
            self._walk_module(ctx)
            modules.append((ctx, suppressions))

        # Project-level rules report through a context-free callback;
        # their findings participate in suppression matching like any
        # other (keyed by path+line).
        project_findings: List[Finding] = []

        def report(
            path: str, line: int, col: int, code: str, message: str, rule: str
        ) -> None:
            project_findings.append(
                Finding(
                    code=code,
                    message=message,
                    path=path,
                    line=line,
                    col=col,
                    rule=rule,
                )
            )

        for rule in self._rules:
            rule.finish_project(project, report)

        by_path: Dict[str, List[Finding]] = {}
        for finding in project_findings:
            by_path.setdefault(finding.path, []).append(finding)

        for ctx, suppressions in modules:
            module_findings = ctx.findings + by_path.pop(ctx.path, [])
            for finding in module_findings:
                if suppressions.suppressed(finding.line, finding.code):
                    continue
                result.findings.append(finding)
            if self._enabled(UNUSED_SUPPRESSION_CODE):
                result.findings.extend(
                    self._suppression_findings(ctx.path, suppressions)
                )
        # Project findings for paths outside the walked set (can only
        # happen with exotic reporters); keep rather than drop.
        for leftovers in by_path.values():
            result.findings.extend(leftovers)

        result.findings.sort(key=lambda f: f.sort_key)
        return result

    def _walk_module(self, ctx: RuleContext) -> None:
        for rule in self._rules:
            rule.start_module(ctx)
        if self._dispatch:
            for node in ast.walk(ctx.tree):
                for types, rule in self._dispatch:
                    if isinstance(node, types):
                        rule.visit(node, ctx)
        for rule in self._rules:
            rule.finish_module(ctx)

    def _suppression_findings(
        self, path: str, suppressions: SuppressionIndex
    ) -> List[Finding]:
        """RPR000 findings: malformed suppressions, suppressions naming
        codes that are not enabled rules, and suppressions that silenced
        nothing."""
        known = {rule.code for rule in self._rules}
        out: List[Finding] = []
        for sup in suppressions.all_suppressions():
            if sup.malformed:
                out.append(
                    Finding(
                        code=UNUSED_SUPPRESSION_CODE,
                        message=(
                            "malformed suppression: use "
                            "`# repro: ignore[RPR0xx]` with explicit codes"
                        ),
                        path=path,
                        line=sup.line,
                        col=sup.col,
                        rule="unused-suppression",
                    )
                )
                continue
            for code in sup.unused_codes:
                if code not in known:
                    # A code no *enabled* rule claims.  If some catalogue
                    # rule owns it, it is merely filtered out by
                    # --select/--ignore and the suppression may be doing
                    # real work -- skip.  A code outside the catalogue is
                    # a typo and stays reportable under any filtering.
                    if code in self._catalogue_codes:
                        continue
                    message = f"suppression names unknown rule code {code}"
                else:
                    message = (
                        f"unused suppression: no {code} finding on this line"
                    )
                out.append(
                    Finding(
                        code=UNUSED_SUPPRESSION_CODE,
                        message=message,
                        path=path,
                        line=sup.line,
                        col=sup.col,
                        rule="unused-suppression",
                    )
                )
        return out
