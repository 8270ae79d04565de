"""The :class:`Finding` record produced by every rule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    code:
        Stable rule code (``RPR0xx``); what suppressions match against.
    message:
        Human-readable description of the violation.
    path:
        Path of the offending file, as given to the analyzer.
    line:
        1-based line number (the line suppressions apply to).
    col:
        0-based column offset.
    rule:
        Name of the rule that produced the finding (``"wall-clock"``).
    """

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    rule: str = ""

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def format_text(self) -> str:
        """The one-line text form: ``path:line:col: CODE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
