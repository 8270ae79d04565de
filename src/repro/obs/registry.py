"""Named counters, gauges and timers with a snapshot API.

A :class:`MetricsRegistry` is the numeric side of the observability
subsystem: where the :class:`~repro.obs.tracer.Tracer` records *events*
(one object per decision), the registry records *aggregates* -- how many
dispatches ran, how many stale heap entries the
:class:`~repro.core.selection.SelectionIndex` popped, how long the hot
path spent inside the timed loop.  Instruments are created lazily on
first use and identified by dotted names (``server.refresh_reports``),
so instrumentation sites never need registration boilerplate.

All instruments are plain-Python and allocation-free on the hot path:
``Counter.inc`` is one float add, ``Gauge.set`` one store, and ``Timer``
only calls its clock at scope boundaries.

Timer clocks are *injectable*: a timer reads time through a zero-arg
callable, defaulting to the host's monotonic high-resolution counter
(:data:`HOST_CLOCK`).  The experiment runner swaps in the simulation
clock (:meth:`MetricsRegistry.set_clock`) for traced runs, so phase
timers report in deterministic sim-time and run manifests stay
byte-reproducible; standalone profiling (the hot-path microbenchmarks)
keeps the host clock.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, Optional, Tuple, Union

__all__ = ["ClockFn", "HOST_CLOCK", "Counter", "Gauge", "Timer", "MetricsRegistry"]

#: A timer clock: zero-arg callable returning seconds (any epoch).
ClockFn = Callable[[], float]

#: The default timer clock -- the host's monotonic high-resolution
#: counter, held as a function *reference*.  This is the single point
#: where host wall-clock may enter the metrics layer, and it is never
#: read by simulation logic: attach a sim clock for deterministic runs.
HOST_CLOCK: ClockFn = time.perf_counter


class Counter:
    """Monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-write-wins named value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Timer:
    """Accumulating interval timer; usable as a context manager.

    ``total`` sums every timed interval, ``count`` the number of
    intervals, ``last`` the most recent one -- enough to report both
    aggregate and per-iteration hot-path cost.  Time is read through
    ``clock`` (default :data:`HOST_CLOCK`); attach the simulation clock
    to report in sim-time instead.
    """

    __slots__ = ("name", "total", "count", "last", "clock", "_started")

    def __init__(self, name: str, clock: Optional[ClockFn] = None) -> None:
        self.name = name
        self.total = 0.0
        self.count = 0
        self.last = 0.0
        self.clock: ClockFn = clock if clock is not None else HOST_CLOCK
        self._started = 0.0

    def start(self) -> "Timer":
        self._started = self.clock()
        return self

    def stop(self) -> float:
        self.last = self.clock() - self._started
        self.total += self.last
        self.count += 1
        return self.last

    def __enter__(self) -> "Timer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        return f"Timer({self.name} total={self.total:.6g}s count={self.count})"


class MetricsRegistry:
    """Lazily created named instruments with one-call snapshotting."""

    __slots__ = ("_counters", "_gauges", "_timers", "_clock")

    def __init__(self, clock: Optional[ClockFn] = None) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        self._clock = clock

    def set_clock(self, clock: Optional[ClockFn]) -> None:
        """Set the clock for this registry's timers -- existing and
        future.  ``None`` restores :data:`HOST_CLOCK`."""
        self._clock = clock
        effective = clock if clock is not None else HOST_CLOCK
        for timer in self._timers.values():
            timer.clock = effective

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            self._check_free(name, self._gauges, self._timers)
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            self._check_free(name, self._counters, self._timers)
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def timer(self, name: str) -> Timer:
        instrument = self._timers.get(name)
        if instrument is None:
            self._check_free(name, self._counters, self._gauges)
            instrument = self._timers[name] = Timer(name, self._clock)
        return instrument

    def instruments(self) -> Iterator[Tuple[str, str, Any]]:
        """``(type, name, instrument)`` triples in registration order --
        the typed view exposition layers (Prometheus) need, which the
        flat :meth:`snapshot` erases."""
        for name, counter in self._counters.items():
            yield ("counter", name, counter)
        for name, gauge in self._gauges.items():
            yield ("gauge", name, gauge)
        for name, timer in self._timers.items():
            yield ("timer", name, timer)

    @staticmethod
    def _check_free(name: str, *others: Dict) -> None:
        # Snapshot keys are flat, so one name must map to one instrument.
        if any(name in other for other in others):
            raise ValueError(
                f"metric name {name!r} already registered as another type"
            )

    def snapshot(self) -> Dict[str, Union[int, float, Dict[str, float]]]:
        """JSON-ready view of every instrument: counters and gauges map
        to their value, timers to ``{total, count, mean}``."""
        out: Dict[str, Union[int, float, Dict[str, float]]] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, timer in self._timers.items():
            out[name] = {
                "total": timer.total,
                "count": timer.count,
                "mean": timer.total / timer.count if timer.count else 0.0,
            }
        return out

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, timers={len(self._timers)})"
        )
