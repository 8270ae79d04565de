"""Cross-file project model for the conformance rule.

Per-module AST walks are enough for the local rules (wall-clock calls,
asserts, set iteration), but the tracer-pairing contract is a *global*
property: "every hook override below ``VirtualTimeScheduler`` keeps its
trace event" needs class bodies -- possibly inherited through a chain
of bases -- from several files.  The :class:`ProjectModel` accumulates
exactly the summaries that rule needs while the engine walks each file,
then hands them to ``finish_project`` hooks.

Name resolution is intentionally lightweight: base classes are resolved
by bare class name across the analyzed tree (same-module definitions
win), which is exact for this codebase and degrades to "unknown base,
stop walking" for classes imported from outside the analyzed paths.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "MethodInfo",
    "ClassInfo",
    "ProjectModel",
]


@dataclass
class MethodInfo:
    """Static summary of one method definition."""

    name: str
    lineno: int
    col: int
    #: Decorated with ``abstractmethod`` (any spelling).
    is_abstract: bool
    #: Body is only a docstring plus ``pass``/``...``/``raise
    #: NotImplementedError`` -- a declaration, not an implementation.
    is_stub: bool
    #: The body reads ``<anything>._trace`` (the tracer guard idiom).
    references_trace: bool
    #: The body calls ``super().<same method>(...)``.
    calls_super_same: bool


@dataclass
class ClassInfo:
    """Static summary of one class definition."""

    name: str
    module: str
    path: str
    bases: Tuple[str, ...]
    methods: Dict[str, MethodInfo] = field(default_factory=dict)


def _base_name(node: ast.expr) -> Optional[str]:
    """Bare name of a base-class expression (``Scheduler``,
    ``core.Scheduler`` -> ``Scheduler``); ``None`` for anything fancier."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_abstract(node: ast.FunctionDef) -> bool:
    for deco in node.decorator_list:
        name = _base_name(deco)
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _is_stub(node: ast.FunctionDef) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ):
        body = body[1:]  # skip docstring
    if not body:
        return True
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # `...`
        if isinstance(stmt, ast.Raise):
            exc = stmt.exc
            name = None
            if isinstance(exc, ast.Call):
                name = _base_name(exc.func)
            elif exc is not None:
                name = _base_name(exc)
            if name == "NotImplementedError":
                continue
        return False
    return True


def _references_trace(node: ast.FunctionDef) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "_trace":
            return True
    return False


def _calls_super_same(node: ast.FunctionDef) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == node.name
            and isinstance(sub.func.value, ast.Call)
            and _base_name(sub.func.value.func) == "super"
        ):
            return True
    return False


def summarize_class(
    node: ast.ClassDef, module: str, path: str
) -> ClassInfo:
    """Build the :class:`ClassInfo` summary for one class definition."""
    bases = tuple(
        name for name in (_base_name(b) for b in node.bases) if name is not None
    )
    info = ClassInfo(
        name=node.name,
        module=module,
        path=path,
        bases=bases,
    )
    for stmt in node.body:
        if isinstance(stmt, ast.FunctionDef):
            info.methods[stmt.name] = MethodInfo(
                name=stmt.name,
                lineno=stmt.lineno,
                col=stmt.col_offset,
                is_abstract=_is_abstract(stmt),
                is_stub=_is_stub(stmt),
                references_trace=_references_trace(stmt),
                calls_super_same=_calls_super_same(stmt),
            )
    return info


class ProjectModel:
    """Accumulated cross-file facts about the analyzed tree."""

    def __init__(self) -> None:
        #: Class summaries by bare name; collisions keep every definition.
        self.classes: Dict[str, List[ClassInfo]] = {}

    # -- collection (called by the engine) --------------------------------

    def add_module(self, tree: ast.Module, module: str, path: str) -> None:
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                info = summarize_class(stmt, module, path)
                self.classes.setdefault(info.name, []).append(info)

    # -- queries ----------------------------------------------------------

    def resolve(
        self, name: str, from_module: Optional[str] = None
    ) -> Optional[ClassInfo]:
        """Resolve a class by bare name; same-module definitions win."""
        candidates = self.classes.get(name)
        if not candidates:
            return None
        if from_module is not None:
            for info in candidates:
                if info.module == from_module:
                    return info
        return candidates[0]

    def mro(self, name: str, from_module: Optional[str] = None) -> Iterator[ClassInfo]:
        """The by-name base-class chain starting at ``name``.

        Walks bases depth-first in declaration order, stopping at
        classes not defined in the analyzed tree.  Cycles (mutually
        recursive bases, which would be a bug anyway) are broken by a
        visited set.
        """
        seen = set()
        stack = [(name, from_module)]
        while stack:
            current, module = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.resolve(current, module)
            if info is None:
                continue
            yield info
            stack = [(b, info.module) for b in info.bases] + stack

    def derives_from(
        self, class_name: str, ancestor: str, from_module: Optional[str] = None
    ) -> bool:
        """True when ``ancestor`` appears strictly above ``class_name``
        in the by-name MRO."""
        for info in self.mro(class_name, from_module):
            if info.name != class_name and info.name == ancestor:
                return True
        return False
