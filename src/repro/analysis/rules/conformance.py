"""Scheduler-conformance rule: RPR021.

A cross-file rule: it consumes the
:class:`~repro.analysis.project.ProjectModel` the engine accumulates
while walking every module, and reports from ``finish_project``.
"""

from __future__ import annotations

from typing import ClassVar

from ..base import Reporter, Rule
from ..project import ProjectModel

__all__ = ["TracerPairingRule"]

#: State-mutating hooks of the virtual-time framework and the trace
#: emission their base implementations perform.  An override that
#: neither references ``_trace`` nor defers to ``super()`` silently
#: drops those events, starving the obs pipeline (golden traces,
#: Chrome-trace export, the watchdog's non-strict reporting).
_INSTRUMENTED_HOOKS = {
    "enqueue": "enqueue",
    "dequeue": "select/dispatch",
    "complete": "complete",
    "cancel": "cancel",
    "_cancel_queued": "vt_update",
    "_cancel_running": "vt_update",
}


class TracerPairingRule(Rule):
    """RPR021: overridden state-mutating hooks keep their obs events.

    For every class deriving (by name) from ``VirtualTimeScheduler``:
    each override of an instrumented hook must either reference
    ``self._trace`` (the guarded-emission idiom) or call
    ``super().<hook>()`` so the instrumented base implementation still
    runs.
    """

    code: ClassVar[str] = "RPR021"
    name: ClassVar[str] = "tracer-pairing"
    description: ClassVar[str] = (
        "VirtualTimeScheduler hook override drops its paired repro.obs "
        "tracer event (no _trace reference, no super() call)"
    )

    _ROOT: ClassVar[str] = "VirtualTimeScheduler"

    def finish_project(self, project: ProjectModel, report: Reporter) -> None:
        for infos in project.classes.values():
            for info in infos:
                in_framework = info.name == self._ROOT or project.derives_from(
                    info.name, self._ROOT, info.module
                )
                if not in_framework:
                    continue
                for hook, event in _INSTRUMENTED_HOOKS.items():
                    impl = info.methods.get(hook)
                    if impl is None or impl.is_abstract or impl.is_stub:
                        continue
                    if impl.references_trace or impl.calls_super_same:
                        continue
                    report(
                        info.path,
                        impl.lineno,
                        impl.col,
                        self.code,
                        f"`{info.name}.{hook}` overrides an instrumented "
                        f"hook without emitting its paired `{event}` trace "
                        "event (reference self._trace or call "
                        f"super().{hook}(...))",
                        self.name,
                    )
