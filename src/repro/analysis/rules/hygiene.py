"""Virtual-time hygiene rule: RPR012.

A scheduling decision (or request construction order) driven by set
iteration order differs between runs, because string hashes are salted
per process.  Tier-1 catches such a bug only under the hash seeds where
the set order happens to differ from the intended one, so the lint
stays (DESIGN.md §17).
"""

from __future__ import annotations

import ast
from typing import ClassVar, Tuple

from ..base import Rule, RuleContext

__all__ = ["UnorderedIterationRule"]


class UnorderedIterationRule(Rule):
    """RPR012: no iteration over set-typed expressions.

    Set iteration order depends on insertion history *and* the
    per-process hash salt for strings, so any scheduling decision (or
    request construction order) fed by it differs between runs.  Dicts
    are fine -- Python dicts iterate in insertion order, which the
    backlog bookkeeping in ``vt_base`` deliberately relies on -- but a
    set must be passed through ``sorted(...)`` first.
    """

    code: ClassVar[str] = "RPR012"
    name: ClassVar[str] = "unordered-iteration"
    node_types: ClassVar[Tuple[type, ...]] = (
        ast.For,
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    )

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return False

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        iters = []
        if isinstance(node, ast.For):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            iters = [gen.iter for gen in node.generators]
        for it in iters:
            if self._is_set_expr(it):
                ctx.report(
                    self,
                    it,
                    "iterating a set feeds hash-salted order into the "
                    "simulation; wrap the set in sorted(...)",
                )
