"""Rule plugin interface and per-module analysis context."""

from __future__ import annotations

import ast
from typing import ClassVar, List, Optional, Tuple

from .findings import Finding

__all__ = ["Rule", "RuleContext"]


class RuleContext:
    """Everything a rule can know about the module under analysis.

    Attributes
    ----------
    path:
        The file path as handed to the analyzer (what findings carry).
    module:
        Best-effort dotted module name, derived by walking parent
        directories while they contain ``__init__.py`` -- so analyzing
        the real tree yields ``repro.core.vt_base`` and analyzing a test
        fixture yields the fixture's package-relative name.
    parts:
        ``module.split(".")`` as a tuple, for cheap scope checks
        (``"core" in ctx.parts``).
    tree:
        The parsed :class:`ast.Module`.
    """

    __slots__ = ("path", "module", "parts", "tree", "_findings")

    def __init__(self, path: str, module: str, tree: ast.Module) -> None:
        self.path = path
        self.module = module
        self.parts: Tuple[str, ...] = tuple(module.split(".")) if module else ()
        self.tree = tree
        self._findings: List[Finding] = []

    def report(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
        *,
        line: Optional[int] = None,
        col: Optional[int] = None,
    ) -> None:
        """Record a finding for ``rule`` at ``node`` (or an explicit line)."""
        self._findings.append(
            Finding(
                code=rule.code,
                message=message,
                path=self.path,
                line=line if line is not None else getattr(node, "lineno", 1),
                col=col if col is not None else getattr(node, "col_offset", 0),
                rule=rule.name,
            )
        )

    @property
    def findings(self) -> List[Finding]:
        return self._findings

    def in_package(self, name: str) -> bool:
        """True when ``name`` is one of the module's package components."""
        return name in self.parts[:-1]


class Rule:
    """Base class for analysis rules.

    A rule is a visitor plugin: it declares the AST node types it wants
    in :attr:`node_types`, and the engine -- which walks each module's
    tree exactly once -- calls :meth:`visit` for every matching node.
    Module-scoped state lives between :meth:`start_module` and
    :meth:`finish_module`; every rule sees one file at a time.
    """

    #: Stable finding code, ``RPR0xx``.  Suppressions match on this.
    code: ClassVar[str] = "RPR999"
    #: Short kebab-case rule name for finding records.
    name: ClassVar[str] = "unnamed-rule"
    #: AST node classes this rule's :meth:`visit` receives.
    node_types: ClassVar[Tuple[type, ...]] = ()

    def start_module(self, ctx: RuleContext) -> None:
        """Called before the walk of each module; reset per-module state."""

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        """Called for every node in the module whose type is listed in
        :attr:`node_types`, in document order."""

    def finish_module(self, ctx: RuleContext) -> None:
        """Called after the walk of each module."""

    def __repr__(self) -> str:
        return f"<Rule {self.code} {self.name}>"
