"""ASCII rendering of experiment results.

The figure registry (:mod:`repro.figures`) and the ablation benchmarks
print the rows and series the paper's figures show; these helpers keep
that output consistent and readable in terminals and in the committed
``benchmarks/results/*.txt``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "sparkline"]

_SPARK_CHARS = " .:-=+*#%@"


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence], precision: int = 4
) -> str:
    """Fixed-width table with auto-sized columns."""

    def render(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.{precision}g}"
        return str(cell)

    rendered = [[render(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """One-line shape summary of a series (for time-series figures)."""
    values = list(values)
    if not values:
        return ""
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK_CHARS[0] * len(values)
    scale = (len(_SPARK_CHARS) - 1) / (high - low)
    return "".join(_SPARK_CHARS[int((v - low) * scale)] for v in values)
