"""Host-speed probe: how fast the CPU ran while a repeat was measured.

On a shared host the same work takes a different number of CPU seconds
from one minute to the next: the core's other hyperthread, the shared
caches and the clock frequency belong partly to other guests.  Those
slow periods last from seconds to minutes and switch on and off within
them, and the guest is not told (no steal time accrues).  CPU time alone
leaves out only the waits for a CPU.

:class:`SpeedProbe` samples the speed during the repeat itself.  Every
:data:`PERIOD_S` of the process's CPU time, ``SIGPROF`` interrupts the
workload, and the handler times :func:`kernel`, a fixed piece of
pure-Python work shaped like the simulator's (a heap of timed events,
per-tenant dict updates, float arithmetic, small objects).  The kernel
is part of the benchmark, not of the package, so a change to the
package cannot move it.  The handler runs with the garbage collector
off and frees what it allocates, so the workload's collections run and
are timed in the workload; the samples' own time is taken out of the
workload's.

The mean sample over :data:`REFERENCE_KERNEL_S` is how much slower the
kernel ran.  The tenth of the samples at either end is left out, since
a sample can also catch an interrupt or a cache the workload just
emptied; a slow period that switches on and off within the repeat shows
in the mean in proportion to the share of the repeat it took, where a
median would snap to one side.  The kernel slows down more than the
workloads do: over about 470 repeats of four workloads, ln(CPU time)
rose by :data:`ELASTICITY` times ln(kernel ratio), for every workload
alike, and in a period of two-fold slowdowns the workloads took about
2.0x and the kernel about 2.45x.  So the repeat's slowdown is the kernel
ratio to that power.
"""

from __future__ import annotations

import gc
import heapq
import signal
from array import array
from time import thread_time
from typing import Any, Optional

__all__ = ["ELASTICITY", "PERIOD_S", "REFERENCE_KERNEL_S", "SpeedProbe", "kernel"]

#: CPU seconds between two samples (about 2% of the repeat goes to them).
PERIOD_S = 0.01
#: Events one sample processes.
KERNEL_EVENTS = 200
#: Mean seconds of one sample on the quiet 2-core x86-64 VM this benchmark
#: was written on.  Only ratios to it are reported, so its value only sets
#: the scale on which normalised times read like seconds.
REFERENCE_KERNEL_S = 1.9e-4
#: How the workloads' CPU time follows the kernel's (see above).
ELASTICITY = 0.8


class _Job:
    __slots__ = ("tenant", "cost", "start")

    def __init__(self, tenant: str, cost: float, start: float) -> None:
        self.tenant = tenant
        self.cost = cost
        self.start = start


_TENANTS = tuple(f"t{index}" for index in range(16))


def kernel(events: int = KERNEL_EVENTS) -> float:
    """Serve ``events`` jobs of 16 tenants from a time-ordered heap, with
    a fixed pseudo-random cost stretch; returns the total service."""
    heap = [
        (index * 0.5, index, _Job(tenant, 1.0 + index % 7, 0.0))
        for index, tenant in enumerate(_TENANTS)
    ]
    heapq.heapify(heap)
    served = dict.fromkeys(_TENANTS, 0.0)
    seq = len(heap)
    state = 12345
    for _ in range(events):
        now, _, job = heapq.heappop(heap)
        served[job.tenant] += job.cost
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        seq += 1
        stretch = 1.0 + (state % 100) / 100.0
        heapq.heappush(heap, (now + job.cost * stretch, seq, _Job(job.tenant, job.cost, now)))
    return sum(served.values())


class SpeedProbe:
    """Samples :func:`kernel` on a CPU-time timer while it is entered."""

    def __init__(self) -> None:
        self.samples = array("d")
        self._previous: Any = None

    def _sample(self, signum: int, frame: Optional[Any]) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = thread_time()
        kernel()
        self.samples.append(thread_time() - start)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def sampled_s(self) -> float:
        """CPU seconds the samples took (not the workload's)."""
        return sum(self.samples)

    def slowdown(self) -> float:
        """Mean of the middle 80% of the samples over the reference
        sample, to the power :data:`ELASTICITY`; a repeat too short to be
        sampled is sampled once now."""
        if not self.samples:
            self._sample(signal.SIGPROF, None)
        ordered = sorted(self.samples)
        cut = len(ordered) // 10
        middle = ordered[cut:len(ordered) - cut]
        return (sum(middle) / len(middle) / REFERENCE_KERNEL_S) ** ELASTICITY
