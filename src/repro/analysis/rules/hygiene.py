"""Virtual-time hygiene rules: RPR010, RPR011, RPR012.

The virtual-time arithmetic in :mod:`repro.core` is engineered so every
charge is exactly reconciled (complete()/cancel() restore tags to the
fair value).  That engineering is easy to undo with innocent-looking
code: an ``==`` between two float tags (round-off makes it flap), a
mutation of a request's identity after construction (its seqno/cost are
tie-breakers and charge units), or a scheduling decision driven by set
iteration order (hash-salted per process).
"""

from __future__ import annotations

import ast
from typing import ClassVar, Tuple

from ..base import Rule, RuleContext

__all__ = [
    "FloatEqualityRule",
    "FrozenRequestFieldRule",
    "UnorderedIterationRule",
]

#: Attributes that are float-valued virtual-time state wherever they
#: appear in repro.core (tags, charges, costs).
_FLOAT_ATTRS = frozenset(
    {
        "start_tag",
        "finish_tag",
        "charged_cost",
        "credit",
        "reported_usage",
        "cost",
        "arrival_time",
        "dispatch_time",
        "completion_time",
        "virtual_time",
    }
)


def _is_floatish(node: ast.expr) -> bool:
    """Conservatively true when an expression is certainly float-valued."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True  # true division is float-valued in Python 3
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.Attribute):
        return node.attr in _FLOAT_ATTRS
    return False


class FloatEqualityRule(Rule):
    """RPR010: no ``==``/``!=`` between float expressions in ``repro.core``.

    Virtual-time tags accumulate round-off; two tags that are
    mathematically equal are rarely bit-equal, so equality tests on them
    are latent nondeterminism (they flip with summation order).  Compare
    with an explicit tolerance, or restructure so exact comparison is on
    integers (seqnos, epochs) -- as the eligibility slack in
    ``vt_base._eligibility_threshold`` does.
    """

    code: ClassVar[str] = "RPR010"
    name: ClassVar[str] = "float-equality"
    description: ClassVar[str] = (
        "== / != between float expressions in repro.core virtual-time logic"
    )
    node_types: ClassVar[Tuple[type, ...]] = (ast.Compare,)

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        if not ctx.in_package("core"):
            return
        if not isinstance(node, ast.Compare):
            return
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_floatish(left) or _is_floatish(right):
                ctx.report(
                    self,
                    node,
                    "exact ==/!= on float virtual-time values flaps with "
                    "round-off; compare with a tolerance or on integer keys",
                )
                return


#: Request identity fields that must never be reassigned after
#: construction.  (Lifecycle fields -- phase, *_time, thread_id,
#: charging bookkeeping -- are intentionally mutable.)
_FROZEN_FIELDS = frozenset({"tenant_id", "cost", "api", "seqno", "weight"})


def _looks_like_request(node: ast.expr) -> bool:
    """True when an attribute's receiver is, by naming convention, a
    :class:`~repro.core.request.Request` (``request.cost``, ``req.api``,
    ``state.queue[0].seqno``)."""
    if isinstance(node, ast.Name):
        name = node.id
        return (
            name in ("request", "req", "head")
            or name.endswith("_request")
            or name.endswith("_req")
        )
    if isinstance(node, ast.Subscript):
        value = node.value
        return isinstance(value, ast.Attribute) and value.attr == "queue"
    return False


class FrozenRequestFieldRule(Rule):
    """RPR011: request identity is frozen after construction.

    ``seqno`` is the global deterministic tie-breaker, ``cost`` the unit
    every charge reconciles against, and estimators key their state on
    ``(tenant_id, api)``: reassigning any of them mid-flight corrupts
    bookkeeping that assumes they are constants.  The rule matches
    attribute stores on receivers named like requests (``request``,
    ``req``, ``head``, ``*_request``) and on queue heads
    (``<x>.queue[0]``).
    """

    code: ClassVar[str] = "RPR011"
    name: ClassVar[str] = "frozen-request-field"
    description: ClassVar[str] = (
        "assignment to a frozen Request identity field "
        "(tenant_id/cost/api/seqno/weight)"
    )
    node_types: ClassVar[Tuple[type, ...]] = (
        ast.Assign,
        ast.AugAssign,
        ast.AnnAssign,
    )

    def visit(self, node: ast.AST, ctx: RuleContext) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            return
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr in _FROZEN_FIELDS
                and _looks_like_request(target.value)
            ):
                ctx.report(
                    self,
                    target,
                    f"request identity field `{target.attr}` is frozen "
                    "after construction (it feeds tie-breaking and charge "
                    "reconciliation); build a new Request instead",
                )


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
    description: ClassVar[str] = (
        "iteration over a set (hash-salted order); wrap in sorted(...)"
    )
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
