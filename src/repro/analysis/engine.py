"""The analyzer: file collection, single-pass dispatch, suppressions.

One :class:`Analyzer` run parses every ``.py`` file under the given
paths exactly once, walks each tree once while dispatching nodes to the
rules that declared interest in their type, and applies the file's
inline suppressions to its findings -- reporting any suppression that
silenced nothing (``RPR000``) and any file that failed to parse
(``RPR090``).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Type

from .base import Rule, RuleContext
from .findings import Finding
from .rules import ALL_RULES
from .suppress import UNUSED_SUPPRESSION_CODE, SuppressionIndex

__all__ = ["Analyzer", "AnalysisResult", "PARSE_ERROR_CODE"]

#: Code under which unparseable files are reported.
PARSE_ERROR_CODE = "RPR090"

#: Every code some catalogue rule or engine built-in claims, so that a
#: suppression naming a rule left out of one run is told from a typo.
CATALOGUE_CODES = frozenset(
    [cls.code for cls in ALL_RULES] + [UNUSED_SUPPRESSION_CODE, PARSE_ERROR_CODE]
)


@dataclass
class AnalysisResult:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


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
        The built-in ``RPR000``/``RPR090`` pseudo-rules always run.
    """

    def __init__(self, rules: Optional[Iterable[Type[Rule]]] = None) -> None:
        self._rules: List[Rule] = [
            cls() for cls in (rules if rules is not None else ALL_RULES)
        ]
        #: node type -> rules wanting it (built once; isinstance handles
        #: subclass declarations like a rule asking for ast.stmt).
        self._dispatch: List[Tuple[Tuple[type, ...], Rule]] = [
            (rule.node_types, rule) for rule in self._rules if rule.node_types
        ]

    @property
    def rules(self) -> List[Rule]:
        return list(self._rules)

    # -- execution ---------------------------------------------------------

    def run(self, paths: Sequence[str]) -> AnalysisResult:
        result = AnalysisResult()
        for path in collect_files(paths):
            result.files_analyzed += 1
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    source = fh.read()
                tree = ast.parse(source, filename=path)
            except (SyntaxError, ValueError, UnicodeDecodeError, OSError) as exc:
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
            self._walk_module(ctx)
            suppressions = SuppressionIndex.from_source(source)
            for finding in ctx.findings:
                if not suppressions.suppressed(finding.line, finding.code):
                    result.findings.append(finding)
            result.findings.extend(self._suppression_findings(path, suppressions))
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
        codes outside the catalogue, and suppressions that silenced
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
                    # A code no rule of this run claims.  If some
                    # catalogue rule owns it, that rule is merely left
                    # out of this run (the CLI's auxiliary pass) and the
                    # suppression may be doing real work -- skip.  A
                    # code outside the catalogue is a typo and stays
                    # reportable in any run.
                    if code in CATALOGUE_CODES:
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
