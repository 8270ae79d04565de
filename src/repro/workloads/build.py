"""Turn tenant specs and traces into live simulator sources.

This is the glue between the declarative workload layer
(:class:`~repro.workloads.spec.TenantSpec`, traces) and the execution
layer (:mod:`repro.simulator.sources`).  Closed-loop specs become
:class:`BackloggedSource` fed by the spec's block-drawn
:meth:`~repro.workloads.spec.TenantSpec.request_stream`; open-loop specs
become a pre-generated :class:`TraceSource`, so each scheduler sees the
byte-identical arrival sequence.  Neither source runs a Python frame of
this layer per request.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List, Optional, Sequence

from ..errors import WorkloadError
from ..simulator.rng import make_rng
from ..simulator.sources import BackloggedSource, Source, SubmitTarget, TraceSource
from .arrivals import Backlogged, OpenLoopProcess
from .spec import TenantSpec
from .trace import TraceRecord, generate_trace

__all__ = ["attach_specs", "attach_trace"]

#: A trace row as the ``(time, tenant, api, cost)`` tuple replay reads.
_ROW = attrgetter("time", "tenant", "api", "cost")


def attach_trace(
    server: SubmitTarget,
    trace: Sequence[TraceRecord],
    speed: float = 1.0,
    weight: float = 1.0,
) -> TraceSource:
    """Attach a pre-generated trace to a submit target and start it."""
    source = TraceSource(server, map(_ROW, trace), speed=speed, weight=weight)
    source.start()
    return source


def attach_specs(
    server: SubmitTarget,
    specs: Sequence[TenantSpec],
    seed: int = 0,
    duration: Optional[float] = None,
    speed: float = 1.0,
    trace: Optional[Sequence[TraceRecord]] = None,
) -> List[Source]:
    """Attach every spec to the server and start all sources.

    Open-loop specs are materialized into one merged trace (unless a
    pre-built ``trace`` is supplied), guaranteeing that repeated calls
    with the same seed replay the identical arrival sequence no matter
    which scheduler the server runs -- the controlled-comparison
    requirement of the paper's methodology.

    Parameters
    ----------
    duration:
        Trace horizon in seconds; required when any spec is open-loop
        and no pre-built ``trace`` is given.
    speed:
        Replay speed for the open-loop trace (paper sweeps 0.5x-4x).
    """
    sources: List[Source] = []
    open_loop = [spec for spec in specs if isinstance(spec.arrivals, OpenLoopProcess)]
    for spec in specs:
        if isinstance(spec.arrivals, Backlogged):
            stream = spec.request_stream(make_rng(seed, "costs", spec.tenant_id))
            source = BackloggedSource(
                server,
                spec.tenant_id,
                stream.__next__,
                window=spec.arrivals.window,
                weight=spec.weight,
                start_time=spec.arrivals.start_time,
            )
            source.start()
            sources.append(source)
        elif not isinstance(spec.arrivals, OpenLoopProcess):
            raise WorkloadError(
                f"tenant {spec.tenant_id}: unsupported arrival process "
                f"{type(spec.arrivals).__name__}"
            )
    if trace is None and open_loop:
        if duration is None:
            raise WorkloadError("duration required to materialize open-loop specs")
        trace = generate_trace(open_loop, duration * speed, seed=seed)
    if trace:
        sources.append(attach_trace(server, trace, speed=speed))
    return sources
