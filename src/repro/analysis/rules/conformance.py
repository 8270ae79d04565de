"""Scheduler-conformance rules: RPR020, RPR021, and RPR022.

These are the cross-file rules: they consume the
:class:`~repro.analysis.project.ProjectModel` the engine accumulates
while walking every module, and report from ``finish_project``.
"""

from __future__ import annotations

from typing import ClassVar

from ..base import Reporter, Rule
from ..project import ProjectModel

__all__ = ["SchedulerSurfaceRule", "TracerPairingRule", "IndexSurfaceRule"]

#: The full scheduler API surface (DESIGN.md §4 contract): every
#: registered scheduler must provide each of these, directly or through
#: a base class in the analyzed tree.
_SURFACE = (
    "enqueue",
    "dequeue",
    "refresh",
    "complete",
    "cancel",
)


class SchedulerSurfaceRule(Rule):
    """RPR020: registered schedulers implement the full surface.

    Walks every class name registered in ``SCHEDULER_CLASSES``
    (``repro.core.registry``) and requires a *concrete* definition of
    each surface method somewhere along its by-name base chain --
    ``@abstractmethod`` declarations and ``raise NotImplementedError``
    stubs do not count.  This is what keeps
    :class:`~repro.simulator.server.ThreadPoolServer`, the fault
    injector's cancel path, and the watchdog proxy oblivious to which of
    the 8 policies they drive.
    """

    code: ClassVar[str] = "RPR020"
    name: ClassVar[str] = "scheduler-surface"
    description: ClassVar[str] = (
        "registered scheduler missing a concrete "
        "enqueue/dequeue/refresh/complete/cancel implementation"
    )

    def finish_project(self, project: ProjectModel, report: Reporter) -> None:
        for reg in project.registered:
            info = project.resolve(reg.class_name, reg.module)
            if info is None:
                report(
                    reg.path,
                    reg.lineno,
                    reg.col,
                    self.code,
                    f"registered scheduler `{reg.class_name}` is not defined "
                    "in the analyzed tree (run the analyzer over the whole "
                    "package so its base chain is visible)",
                    self.name,
                )
                continue
            for method in _SURFACE:
                found = project.find_method(info.name, method, info.module)
                if found is None:
                    report(
                        info.path,
                        info.lineno,
                        info.col,
                        self.code,
                        f"scheduler `{info.name}` (registered in "
                        f"{reg.module}) has no `{method}` implementation "
                        "anywhere in its base chain",
                        self.name,
                    )
                    continue
                owner, impl = found
                if impl.is_abstract or impl.is_stub:
                    report(
                        info.path,
                        info.lineno,
                        info.col,
                        self.code,
                        f"scheduler `{info.name}` inherits `{method}` only "
                        f"as an abstract/stub declaration "
                        f"(from `{owner.name}`); a concrete implementation "
                        "is required",
                        self.name,
                    )


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


class IndexSurfaceRule(Rule):
    """RPR022: the indexed-selection surface stays paired below
    ``VirtualTimeScheduler``.

    A subclass that advertises an index layout by overriding
    ``_index_spec`` concretely must have a concrete ``_select_indexed``
    somewhere along its by-name base chain -- otherwise ``indexed=True``
    (and the adaptive default's rising edge) routes straight into the
    base stub's ``NotImplementedError`` mid-run.
    """

    code: ClassVar[str] = "RPR022"
    name: ClassVar[str] = "index-surface"
    description: ClassVar[str] = (
        "VirtualTimeScheduler subclass overrides _index_spec without a "
        "concrete _select_indexed"
    )

    _ROOT: ClassVar[str] = "VirtualTimeScheduler"

    def finish_project(self, project: ProjectModel, report: Reporter) -> None:
        for infos in project.classes.values():
            for info in infos:
                if info.name == self._ROOT or not project.derives_from(
                    info.name, self._ROOT, info.module
                ):
                    continue
                spec = info.methods.get("_index_spec")
                if spec is None or spec.is_abstract or spec.is_stub:
                    continue
                found = project.find_method(info.name, "_select_indexed", info.module)
                if found is None or found[1].is_abstract or found[1].is_stub:
                    report(
                        info.path,
                        spec.lineno,
                        spec.col,
                        self.code,
                        f"`{info.name}` overrides `_index_spec` but has "
                        "no concrete `_select_indexed` in its base "
                        "chain; indexed mode (including the adaptive "
                        "default) would raise mid-run",
                        self.name,
                    )
