"""Queueing-theory anchors for the simulation substrate.

The scheduler tests compare code paths with each other and with the
reference oracle.  These compare the substrate (``Simulation``,
``ThreadPoolServer``, the trace replay source) with closed forms instead.

``fifo`` on ``c`` unit-rate workers fed Poisson arrivals and
exponential costs is an M/M/c queue, whose mean wait is Erlang C.  On
one worker with any cost distribution it is an M/G/1 queue, whose mean
wait is Pollaczek-Khinchine; the tests run it with fixed costs (M/D/1)
and log-normal ones.  Each test draws the arrivals and costs itself
through ``make_rng``, replays them as a ``Trace``, drops a 10% warmup,
and compares the mean of 30 batch means with the formula at a 4-sigma
bound, so a seed change cannot flip the verdict.
"""

import math

import numpy as np
import pytest

from repro.core import make_scheduler
from repro.simulator.clock import Simulation
from repro.simulator.rng import make_rng
from repro.simulator.server import ThreadPoolServer
from repro.workloads.build import attach_trace
from repro.workloads.distributions import CostDistribution, FixedCost, LogNormalCost
from repro.workloads.trace import Trace

REQUESTS = 60_000
WARMUP = 0.1
BATCHES = 30
SIGMAS = 4.0


def erlang_c_wait(c: int, rho: float) -> float:
    """Mean M/M/c queueing delay at unit service rate and load ``rho``."""
    a = c * rho  # offered load in Erlangs
    tail = a**c / math.factorial(c) / (1.0 - rho)
    head = sum(a**k / math.factorial(k) for k in range(c))
    waiting = tail / (head + tail)  # P(an arrival waits)
    return waiting / (c * (1.0 - rho))


def pollaczek_khinchine_wait(rate: float, mean: float, second_moment: float) -> float:
    """Mean M/G/1 queueing delay at unit service rate: arrival rate
    ``rate``, service-time moments ``E[S]`` and ``E[S^2]``."""
    return rate * second_moment / (2.0 * (1.0 - rate * mean))


def mm_c_trace(c: int, rho: float, seed: int) -> Trace:
    """Poisson arrivals at rate ``c * rho`` with Exp(1) costs."""
    key = ("erlang-c", str(c), str(rho))
    gaps = make_rng(seed, *key, "arrivals").exponential(1.0 / (c * rho), REQUESTS)
    costs = make_rng(seed, *key, "costs").exponential(1.0, REQUESTS)
    codes = np.zeros(REQUESTS, dtype=np.intp)
    return Trace(np.cumsum(gaps), codes, codes.copy(), costs, ("T",), ("A",))


def mg_1_trace(costs: CostDistribution, rho: float, seed: int) -> Trace:
    """Poisson arrivals at rate ``rho / E[S]`` with costs drawn from
    ``costs``."""
    key = ("pollaczek-khinchine", repr(costs), str(rho))
    rate = rho / costs.mean()
    gaps = make_rng(seed, *key, "arrivals").exponential(1.0 / rate, REQUESTS)
    draws = costs.sample_many(make_rng(seed, *key, "costs"), REQUESTS)
    codes = np.zeros(REQUESTS, dtype=np.intp)
    return Trace(np.cumsum(gaps), codes, codes.copy(), draws, ("T",), ("A",))


def fifo_waits(trace: Trace, c: int) -> np.ndarray:
    """Queueing delay of every request, in arrival order."""
    sim = Simulation()
    server = ThreadPoolServer(
        sim, make_scheduler("fifo", c), num_threads=c, refresh_interval=None
    )
    waits = []
    server.on_dispatch(lambda request: waits.append(sim.now - request.arrival_time))
    attach_trace(server, trace)
    sim.run()
    return np.asarray(waits)


def test_erlang_c_formula_matches_known_values():
    # M/M/1: W = rho / (1 - rho); c = 2, rho = 0.5: P(wait) = 1/3, W = 1/3.
    assert erlang_c_wait(1, 0.8) == pytest.approx(4.0)
    assert erlang_c_wait(2, 0.5) == pytest.approx(1.0 / 3.0)


def batch_means_z(waits: np.ndarray, expected: float) -> float:
    """How many standard errors the post-warmup mean wait, over
    :data:`BATCHES` batch means, lies from ``expected``."""
    assert len(waits) == REQUESTS
    kept = waits[int(WARMUP * REQUESTS):]
    kept = kept[: len(kept) - len(kept) % BATCHES]
    batch_means = kept.reshape(BATCHES, -1).mean(axis=1)
    stderr = batch_means.std(ddof=1) / math.sqrt(BATCHES)
    return float((batch_means.mean() - expected) / stderr)


@pytest.mark.parametrize("rho", [0.5, 0.8])
@pytest.mark.parametrize("c", [1, 4, 16])
def test_fifo_mean_wait_matches_erlang_c(c, rho):
    waits = fifo_waits(mm_c_trace(c, rho, seed=1), c)
    expected = erlang_c_wait(c, rho)
    z = batch_means_z(waits, expected)
    assert abs(z) <= SIGMAS, (
        f"c={c} rho={rho}: mean wait {waits.mean():.4f} vs Erlang C "
        f"{expected:.4f} (z={z:.2f})"
    )


def test_pollaczek_khinchine_formula_matches_known_values():
    # Exponential costs (E[S^2] = 2 E[S]^2) give M/M/1; fixed costs halve
    # its wait (M/D/1).
    assert pollaczek_khinchine_wait(0.8, 1.0, 2.0) == pytest.approx(
        erlang_c_wait(1, 0.8)
    )
    assert pollaczek_khinchine_wait(0.5, 1.0, 1.0) == pytest.approx(0.5)


#: Log-normal spread: sigma = 0.4 * ln(10), squared coefficient of
#: variation exp(sigma^2) - 1 = 1.3, above the exponential's 1.
LOGNORMAL_DECADES = 0.4


@pytest.mark.parametrize(
    "costs, second_moment",
    [
        (FixedCost(1.0), 1.0),
        (
            LogNormalCost(median=1.0, sigma_decades=LOGNORMAL_DECADES),
            math.exp(2.0 * (LOGNORMAL_DECADES * math.log(10.0)) ** 2),
        ),
    ],
    ids=["fixed", "lognormal"],
)
def test_fifo_mean_wait_matches_pollaczek_khinchine(costs, second_moment):
    rho = 0.7
    waits = fifo_waits(mg_1_trace(costs, rho, seed=1), 1)
    rate = rho / costs.mean()
    expected = pollaczek_khinchine_wait(rate, costs.mean(), second_moment)
    z = batch_means_z(waits, expected)
    assert abs(z) <= SIGMAS, (
        f"{costs!r}: mean wait {waits.mean():.4f} vs Pollaczek-Khinchine "
        f"{expected:.4f} (z={z:.2f})"
    )
