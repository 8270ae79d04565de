"""Arrival processes: when a tenant's requests reach the server.

The paper's tenants show three arrival shapes (Figure 4): stable rates,
bursts that taper off, and on/off bursts with lulls; plus the
"continuously backlogged" closed-loop tenants used throughout §6.  Each
open-loop process can generate a full arrival-time sequence (for offline
traces) and can report its mean rate (for utilization planning).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List

import numpy as np

from ..errors import WorkloadError

__all__ = [
    "ArrivalProcess",
    "Backlogged",
    "PoissonArrivals",
    "DecayingBurstArrivals",
    "OnOffArrivals",
]


class ArrivalProcess(ABC):
    """Base class for arrival behaviours."""

    @abstractmethod
    def mean_rate(self) -> float:
        """Long-run arrivals per second (``inf`` for backlogged)."""


@dataclass
class Backlogged(ArrivalProcess):
    """Closed loop: keep ``window`` requests outstanding at all times.

    This realizes the paper's "continuously backlogged" tenants; the
    tenant submits a new request the instant one completes.
    """

    window: int = 4
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise WorkloadError(f"window must be >= 1, got {self.window}")

    def mean_rate(self) -> float:
        return math.inf


class OpenLoopProcess(ArrivalProcess):
    """Open-loop base: generates explicit arrival times."""

    @abstractmethod
    def arrival_times(
        self, rng: np.random.Generator, duration: float
    ) -> np.ndarray:
        """Sorted arrival times in ``[0, duration)``."""


@dataclass
class PoissonArrivals(OpenLoopProcess):
    """Homogeneous Poisson arrivals at ``rate`` requests/second.

    Models the stable tenants (Figure 4a: T2's steady ~400 req/s).
    """

    rate: float
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise WorkloadError(f"rate must be positive, got {self.rate}")

    def mean_rate(self) -> float:
        return self.rate

    def arrival_times(
        self, rng: np.random.Generator, duration: float
    ) -> np.ndarray:
        span = duration - self.start_time
        if span <= 0:
            return np.empty(0)
        # Draw gaps in slabs until the horizon is covered; consecutive
        # slabs are consecutive draws, so the slab size changes nothing.
        batch = max(16, int(self.rate * span * 1.2))
        draws = _Exponentials(rng, batch)
        return draws.ticks(self.start_time, duration, 1.0 / self.rate, batch)


@dataclass
class DecayingBurstArrivals(OpenLoopProcess):
    """A burst whose rate decays exponentially: ``rate(t) = r0 * exp(-t/tau)``.

    Models Figure 4b: T3 "submits a large burst of requests that then
    tapers off".  Implemented as an inhomogeneous Poisson process via
    thinning.
    """

    peak_rate: float
    tau: float
    start_time: float = 0.0
    floor_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.peak_rate <= 0 or self.tau <= 0:
            raise WorkloadError("peak_rate and tau must be positive")
        if self.floor_rate < 0 or self.floor_rate > self.peak_rate:
            raise WorkloadError("need 0 <= floor_rate <= peak_rate")

    def mean_rate(self) -> float:
        # Long-run rate tends to the floor; report peak-weighted average
        # over one tau for planning purposes.
        return self.floor_rate + (self.peak_rate - self.floor_rate) * 0.63

    def arrival_times(
        self, rng: np.random.Generator, duration: float
    ) -> np.ndarray:
        # Candidate gaps and acceptance draws interleave on one stream,
        # so this stays a scalar loop (ziggurat exponentials take a
        # variable number of raw words; bulk draws would reorder them).
        exponential, random, exp = rng.exponential, rng.random, math.exp
        start, tau, floor = self.start_time, self.tau, self.floor_rate
        lam_max = self.peak_rate
        scale = 1.0 / lam_max
        times: List[float] = []
        t = start
        while t < duration:
            t += exponential(scale)
            if t >= duration:
                break
            decayed = lam_max * exp(-(t - start) / tau)
            # max(floor, decayed), spelled out.
            if random() <= (decayed if decayed > floor else floor) / lam_max:
                times.append(t)
        return np.array(times)


@dataclass
class OnOffArrivals(OpenLoopProcess):
    """Alternating bursts and lulls (Figure 4c: T10's "bursts and lulls").

    Exponentially distributed ON and OFF period lengths; Poisson arrivals
    at ``burst_rate`` during ON periods, silence during OFF periods.
    """

    burst_rate: float
    mean_on: float
    mean_off: float
    start_time: float = 0.0

    def __post_init__(self) -> None:
        if min(self.burst_rate, self.mean_on, self.mean_off) <= 0:
            raise WorkloadError("burst_rate, mean_on, mean_off must be positive")

    def mean_rate(self) -> float:
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return self.burst_rate * duty

    def arrival_times(
        self, rng: np.random.Generator, duration: float
    ) -> np.ndarray:
        # Period lengths and in-burst gaps are all exponentials of one
        # stream, taken in order from bulk draws.
        t = self.start_time
        rate = self.burst_rate
        expected = self.mean_rate() * max(duration - t, 0.0)
        draws = _Exponentials(rng, int(expected * 1.2) + 16)
        chunks = [np.empty(0)]
        # Start in a burst: short observation windows then always contain
        # ON activity (T10's Figure 4c window opens mid-burst).
        on = True
        while t < duration:
            period = (self.mean_on if on else self.mean_off) * draws.take(1)[0]
            end = min(t + period, duration)
            if on:
                hint = int((end - t) * rate * 1.2) + 16
                chunks.append(draws.ticks(t, end, 1.0 / rate, hint))
            t = end
            on = not on
        return np.concatenate(chunks)


class _Exponentials:
    """One generator's exponential draws, drawn in bulk, handed out in order.

    numpy's ``rng.exponential(scale)`` is ``scale * standard_exponential()``,
    so scaling bulk standard draws reproduces any sequence of scalar
    ``exponential`` calls, whatever their scales.  Draws left over at the
    end are discarded: harmless on a stream used for nothing else.
    """

    def __init__(self, rng: np.random.Generator, batch: int) -> None:
        self._rng = rng
        self._batch = batch
        self._buffer = np.empty(0)
        self._pos = 0

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` standard-exponential draws."""
        pos = self._pos
        left = len(self._buffer) - pos
        if left < n:
            fresh = self._rng.standard_exponential(max(n - left, self._batch))
            if left:
                fresh = np.concatenate((self._buffer[pos:], fresh))
            self._buffer = fresh
            pos = 0
        self._pos = pos + n
        return self._buffer[pos:pos + n]

    def ticks(self, start: float, end: float, scale: float, hint: int) -> np.ndarray:
        """``t = start; t += scale * draw`` until ``t >= end``: the values
        of ``t`` below ``end``.  The draw that reaches ``end`` is used up.

        ``np.cumsum`` over a 1-D array adds left to right, exactly like
        the scalar ``t += gap``.  ``hint`` is the draws taken per step.
        """
        chunks = []
        t = start
        while True:
            steps = np.cumsum(np.concatenate(([t], self.take(hint) * scale)))[1:]
            reached = int(np.searchsorted(steps, end))  # first step >= end
            if reached < hint:
                chunks.append(steps[:reached])
                self._pos -= hint - reached - 1  # hand back the unused draws
                return np.concatenate(chunks)
            chunks.append(steps)
            t = steps[-1]
