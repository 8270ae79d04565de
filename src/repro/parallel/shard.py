"""Time-sharded execution of one long run (DESIGN.md §13).

A single 10M-request simulation is hours of serial work, but an
open-loop workload is a pure replay of a pre-materialized trace -- so
the run can be *sharded in time*: slice the trace into ``N`` consecutive
windows, simulate each window independently with the streaming
collector, and fold the resulting :class:`~repro.metrics.streaming.MetricsPartial`
stores back together.  Each shard is an ordinary picklable cell
(:class:`TimeShardSpec`), so the fan-out rides the existing
:func:`repro.parallel.run_cells` pool/cache machinery and inherits its
determinism contract.

Approximation, stated plainly: shard boundaries cut queues.  Work
queued-but-unfinished when a shard's window closes is dropped rather
than carried into the next shard, and every shard after the first
starts with an idle server and a fresh GPS reference.  For long shards
(boundary effects amortize as ``O(N / duration)``) the error is small
and the differential tests bound it; for *exact* results run unsharded.
Closed-loop (backlogged) specs depend on scheduler feedback, cannot be
pre-materialized, and are rejected with
:class:`~repro.errors.ConfigurationError`.

Quickstart::

    from repro.parallel import run_time_sharded

    metrics = run_time_sharded("2dfq", specs, config, num_shards=8, jobs=8)
    metrics.latency_stats("T1").p99
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

if TYPE_CHECKING:  # imported lazily at run time to avoid package cycles
    from ..experiments.config import ExperimentConfig
    from ..metrics.collector import RunMetrics
    from ..metrics.streaming import MetricsPartial
    from ..parallel.cache import RunCache
    from ..workloads.spec import TenantSpec
    from ..workloads.trace import TraceRecord

__all__ = ["TimeShardSpec", "run_time_sharded", "slice_trace"]


def slice_trace(
    trace: Sequence["TraceRecord"],
    start: float,
    stop: float,
) -> List["TraceRecord"]:
    """Records with ``start <= time < stop``, re-based to ``time - start``.

    Times here are *trace* times (sim time x replay speed), matching the
    units of :class:`~repro.workloads.trace.TraceRecord`.
    """
    if stop <= start:
        raise ConfigurationError(
            f"empty trace window [{start}, {stop})"
        )
    return [
        dataclasses.replace(record, time=record.time - start)
        for record in trace
        if start <= record.time < stop
    ]


@dataclasses.dataclass(frozen=True)
class TimeShardSpec:
    """One time window of a long run, as an independent cell.

    ``trace`` holds only this shard's slice, already re-based to the
    shard-local clock (time 0 = window start), so a cell pickles
    proportionally to its window, not to the whole run.  ``execute()``
    runs the window with the streaming collector and returns its
    :class:`~repro.metrics.streaming.MetricsPartial` shifted back to the
    global clock -- the shape :func:`merge_partials` folds.
    """

    scheduler: str
    config: "ExperimentConfig"
    trace: Tuple["TraceRecord", ...]
    shard_index: int
    num_shards: int
    speed: float = 1.0

    def label(self) -> str:
        """Human-readable cell label (trace-session directory naming)."""
        return (
            f"{self.config.name}--{self.scheduler}"
            f"--shard{self.shard_index:03d}of{self.num_shards}"
        )

    @property
    def shard_duration(self) -> float:
        return self.config.duration / self.num_shards

    @property
    def start_time(self) -> float:
        """Window start on the global simulation clock."""
        return self.shard_index * self.shard_duration

    def execute(self) -> "MetricsPartial":
        from ..experiments.runner import run_single

        # Warmup lives entirely inside shard 0 (validated by
        # run_time_sharded); later shards measure from their first instant.
        warmup = self.config.warmup if self.shard_index == 0 else 0.0
        shard_config = dataclasses.replace(
            self.config,
            name=self.label(),
            duration=self.shard_duration,
            warmup=warmup,
            metrics_mode="streaming",
        )
        metrics = run_single(
            self.scheduler,
            [],
            shard_config,
            trace=list(self.trace),
            speed=self.speed,
        )
        partial = metrics.partial
        partial.shift_times(self.start_time)
        return partial


def run_time_sharded(
    scheduler_name: str,
    specs: Sequence["TenantSpec"],
    config: "ExperimentConfig",
    num_shards: int,
    trace: Optional[Sequence["TraceRecord"]] = None,
    speed: float = 1.0,
    jobs: Optional[int] = None,
    cache: Optional["RunCache"] = None,
) -> "RunMetrics":
    """Run one scheduler over one long workload as ``num_shards``
    consecutive time windows, merged into a single
    :class:`~repro.metrics.collector.RunMetrics` over a streaming store.

    The workload must be fully open-loop (pre-materializable): the trace
    is generated once (or taken from ``trace``, in trace-time units),
    sliced into equal windows, and each window fans out through
    :func:`repro.parallel.run_cells` -- so ``jobs``/``cache`` behave
    exactly as they do for independent runs.  ``config.warmup`` must fit
    inside the first shard.  See the module docstring for the boundary
    approximation this makes.
    """
    from ..parallel.engine import run_cells
    from ..metrics.collector import RunMetrics
    from ..metrics.streaming import merge_partials
    from ..workloads.arrivals import OpenLoopProcess
    from ..workloads.trace import generate_trace

    if num_shards < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    closed = [
        spec.tenant_id
        for spec in specs
        if not isinstance(spec.arrivals, OpenLoopProcess)
    ]
    if closed:
        raise ConfigurationError(
            f"time sharding requires open-loop specs; closed-loop "
            f"tenant(s) {closed} depend on scheduler feedback and cannot "
            "be sliced into independent windows"
        )
    shard_duration = config.duration / num_shards
    if config.warmup >= shard_duration:
        raise ConfigurationError(
            f"warmup ({config.warmup}s) must fit inside the first shard "
            f"({shard_duration}s); use fewer shards or less warmup"
        )
    if trace is None:
        trace = generate_trace(
            list(specs), config.duration * speed, seed=config.seed
        )
    cells = [
        TimeShardSpec(
            scheduler=scheduler_name,
            config=config,
            trace=tuple(
                slice_trace(
                    trace,
                    index * shard_duration * speed,
                    (index + 1) * shard_duration * speed,
                )
            ),
            shard_index=index,
            num_shards=num_shards,
            speed=speed,
        )
        for index in range(num_shards)
    ]
    partials = run_cells(cells, jobs=jobs, cache=cache)
    return RunMetrics(merge_partials(partials))
