"""Prometheus text-format exposition for a :class:`MetricsRegistry`.

Renders the registry's instruments, and any counts handed in, in the
Prometheus text exposition format (v0.0.4): counters as ``<ns>_<name>``
with ``# TYPE ... counter``, gauges likewise, and timers as the
conventional pair ``<name>_seconds_total`` (counter) + ``<name>_count``
(counter).  Dotted registry names become underscore-separated metric
names; output is sorted so snapshots diff cleanly and tests can pin
them byte-for-byte.

This is a *snapshot* exporter -- the simulator has no HTTP server to
scrape -- written alongside the manifest so a run's final counters and
audit gauges land in a format every metrics toolchain already parses.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .registry import MetricsRegistry

__all__ = ["prometheus_text", "write_prometheus"]

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_START = re.compile(r"^[^a-zA-Z_:]")


def _metric_name(name: str, namespace: str) -> str:
    """Sanitise a dotted registry name into a Prometheus metric name."""
    flat = _INVALID_CHARS.sub("_", name.replace(".", "_"))
    if namespace:
        flat = f"{namespace}_{flat}"
    if _INVALID_START.match(flat):
        flat = f"_{flat}"
    return flat


def _label_suffix(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        value = (
            str(labels[key])
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )
        parts.append(f'{key}="{value}"')
    return "{" + ",".join(parts) + "}"


def _format_value(value: float) -> str:
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def prometheus_text(
    registry: MetricsRegistry,
    *,
    counters: Optional[Mapping[str, int]] = None,
    namespace: str = "repro",
    labels: Optional[Dict[str, str]] = None,
) -> str:
    """Render every instrument, and each of ``counters`` (name ->
    count) as a counter, in the Prometheus text format.

    ``labels`` (e.g. ``{"run": "fig08--wfq"}``) are attached to every
    sample, letting multiple runs' snapshots be concatenated.
    """
    suffix = _label_suffix(labels)
    samples: List[Tuple[str, str, float]] = [  # (metric, type, value)
        (_metric_name(name, namespace), "counter", float(value))
        for name, value in (counters or {}).items()
    ]
    for kind, name, instrument in registry.instruments():
        metric = _metric_name(name, namespace)
        if kind == "counter":
            samples.append((metric, "counter", float(instrument.value)))
        elif kind == "gauge":
            samples.append((metric, "gauge", float(instrument.value)))
        else:  # timer -> total-seconds counter + interval count
            samples.append(
                (f"{metric}_seconds_total", "counter", float(instrument.total))
            )
            samples.append((f"{metric}_count", "counter", float(instrument.count)))
    lines: List[str] = []
    for metric, prom_type, value in sorted(samples):
        lines.append(f"# TYPE {metric} {prom_type}")
        lines.append(f"{metric}{suffix} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(
    registry: MetricsRegistry,
    path: Union[str, Path],
    *,
    counters: Optional[Mapping[str, int]] = None,
    namespace: str = "repro",
    labels: Optional[Dict[str, str]] = None,
) -> Path:
    """Write :func:`prometheus_text` to ``path`` and return it."""
    target = Path(path)
    target.write_text(
        prometheus_text(
            registry, counters=counters, namespace=namespace, labels=labels
        )
    )
    return target
