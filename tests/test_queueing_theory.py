"""Queueing-theory anchors for the simulation substrate.

The scheduler tests compare code paths with each other and with the
reference oracle.  These compare the substrate (``Simulation``,
``ThreadPoolServer``, the trace replay source) with closed forms instead.

``fifo`` on ``c`` unit-rate workers fed Poisson arrivals and
exponential costs is an M/M/c queue, whose mean wait is Erlang C.  On
one worker with any cost distribution it is an M/G/1 queue, whose mean
wait is Pollaczek-Khinchine; the tests run it with fixed costs (M/D/1)
and log-normal ones.  On one worker every scheduler, whatever order it
serves tenants in, obeys Kleinrock's conservation law for the
load-weighted mean wait.  ``GPSReference`` fed one flow per request is
M/G/1 processor sharing, whose mean number in system is ``rho / (1 -
rho)`` whatever the cost distribution, per class too.  Each test draws
the arrivals and costs itself through ``make_rng``, replays them as a
``Trace`` (or feeds them to the reference), drops a 10% warmup, and
compares the mean of 30 batch means with the formula at a 4-sigma
bound, so a seed change cannot flip the verdict.
"""

import math
from typing import Sequence, Tuple

import numpy as np
import pytest

from repro.core import make_scheduler
from repro.simulator.clock import Simulation
from repro.simulator.gps import GPSReference
from repro.simulator.rng import make_rng
from repro.simulator.server import ThreadPoolServer
from repro.workloads.build import attach_trace
from repro.workloads.distributions import CostDistribution, FixedCost, LogNormalCost
from repro.workloads.trace import Trace

from conftest import TEST_SCHEDULERS, build_scheduler

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


#: Kleinrock's conservation law: three Poisson tenants, one fixed cost
#: each, sharing the load equally.
CONSERVATION_COSTS = (FixedCost(0.5), FixedCost(1.0), FixedCost(2.0))
CONSERVATION_RHO = 0.7


def split_trace(
    costs: Sequence[CostDistribution],
    loads: Sequence[float],
    key: Tuple[str, ...],
    seed: int,
) -> Trace:
    """One Poisson stream split into tenants ``T0``, ``T1``, ...; tenant
    ``k`` carries load ``loads[k]`` with costs drawn from ``costs[k]``."""
    means = np.array([dist.mean() for dist in costs])
    rates = np.asarray(loads) / means
    gaps = make_rng(seed, *key, "arrivals").exponential(1.0 / rates.sum(), REQUESTS)
    tenants = make_rng(seed, *key, "tenants").choice(
        len(rates), size=REQUESTS, p=rates / rates.sum()
    )
    draws = np.empty(REQUESTS)
    for k, dist in enumerate(costs):
        picked = tenants == k
        draws[picked] = dist.sample_many(make_rng(seed, *key, str(k)), int(picked.sum()))
    names = tuple(f"T{k}" for k in range(len(rates)))
    apis = np.zeros(REQUESTS, dtype=np.intp)
    return Trace(np.cumsum(gaps), tenants.astype(np.intp), apis, draws, names, ("A",))


def conservation_trace(seed: int) -> Trace:
    """One Poisson stream split into three tenants, each carrying
    ``CONSERVATION_RHO / 3`` of the load at its own fixed cost."""
    loads = (CONSERVATION_RHO / len(CONSERVATION_COSTS),) * len(CONSERVATION_COSTS)
    return split_trace(
        CONSERVATION_COSTS, loads, ("kleinrock", str(CONSERVATION_RHO)), seed
    )


@pytest.mark.parametrize("name", TEST_SCHEDULERS)
def test_weighted_wait_obeys_kleinrock_conservation_law(name):
    """Every scheduler here is work conserving and non-preemptive, so on
    one worker ``sum_k rho_k W_k = rho W0 / (1 - rho)`` with ``W0 =
    sum_k lambda_k E[S_k^2] / 2``, whatever order it serves tenants in.

    That form of the law needs each tenant's waits to be independent of
    its requests' own costs.  Several policies here rank a tenant by its
    head request's cost (finish tags, estimates); when costs vary within
    a tenant, that acts like shortest-job-first inside the tenant and
    moves ``sum_k rho_k W_k`` off the law's value, as SJF does against
    FIFO.  So each tenant has one fixed cost, which holds for every
    scheduler.  Then ``rho_k W_k = lambda_k E[S_k W_k]`` and the sum is
    ``lambda E[S W]`` over all requests: the batch means are of
    ``lambda * cost * wait`` per request.  That total is the same on
    every sample path for any work-conserving non-preemptive order, so
    the test catches a scheduler that idles with work queued, or a wait
    accounted wrongly, rather than a wrong service order."""
    means = np.array([costs.mean() for costs in CONSERVATION_COSTS])
    rates = CONSERVATION_RHO / len(means) / means
    w0 = float((rates * means**2).sum()) / 2.0
    expected = CONSERVATION_RHO * w0 / (1.0 - CONSERVATION_RHO)

    sim = Simulation()
    server = ThreadPoolServer(
        sim, build_scheduler(name, 1), num_threads=1, refresh_interval=None
    )
    weighted = []
    server.on_dispatch(
        lambda request: weighted.append(
            request.cost * (sim.now - request.arrival_time)
        )
    )
    attach_trace(server, conservation_trace(seed=1))
    sim.run()
    z = batch_means_z(rates.sum() * np.asarray(weighted), expected)
    assert abs(z) <= SIGMAS, (
        f"{name}: sum rho_k W_k {rates.sum() * np.mean(weighted):.4f} vs "
        f"rho W0 / (1 - rho) {expected:.4f} (z={z:.2f})"
    )


def ps_occupancy(trace: Trace) -> np.ndarray:
    """Feed ``trace`` to a unit-rate ``GPSReference``, one weight-1 flow
    per request: egalitarian processor sharing.  Row ``i`` holds, just
    before arrival ``i`` joins, the reference's ``active_weight`` (the
    number in system) and then the number in system of each tenant of
    the trace.  By PASTA these samples have the time-stationary
    distribution."""
    gps = GPSReference(1.0)
    live = [[] for _ in trace.tenants]
    seen = np.empty((len(trace), 1 + len(live)))
    rows = zip(trace.times.tolist(), trace.tenant_codes.tolist(), trace.costs.tolist())
    for i, (now, tenant, cost) in enumerate(rows):
        gps.advance(now)
        seen[i, 0] = gps.active_weight
        for k, flows in enumerate(live):
            flows[:] = [flow for flow in flows if gps.backlog(flow) > 0.0]
            seen[i, 1 + k] = len(flows)
        gps.arrive(str(i), cost, now)
        live[tenant].append(str(i))
    return seen


@pytest.mark.parametrize(
    "costs",
    [FixedCost(1.0), LogNormalCost(median=1.0, sigma_decades=LOGNORMAL_DECADES)],
    ids=["fixed", "lognormal"],
)
def test_gps_number_in_system_matches_processor_sharing(costs):
    """M/G/1-PS is insensitive (Bonald & Comte): ``E[N] = rho / (1 -
    rho)`` for any cost distribution with the same mean load."""
    rho = 0.7
    counts = ps_occupancy(mg_1_trace(costs, rho, seed=1))
    expected = rho / (1.0 - rho)
    z = batch_means_z(counts[:, 0], expected)
    assert abs(z) <= SIGMAS, (
        f"{costs!r}: mean number in system {counts[:, 0].mean():.4f} vs "
        f"rho / (1 - rho) {expected:.4f} (z={z:.2f})"
    )


#: Two Poisson classes with unequal mean costs and unequal loads.
PS_CLASS_COSTS = (
    FixedCost(0.25),
    LogNormalCost(median=1.0, sigma_decades=LOGNORMAL_DECADES),
)
PS_CLASS_LOADS = (0.2, 0.5)


def test_gps_number_in_system_per_class_matches_processor_sharing():
    """Per class, M/G/1-PS gives ``E[N_k] = rho_k / (1 - rho)``."""
    rho = sum(PS_CLASS_LOADS)
    trace = split_trace(PS_CLASS_COSTS, PS_CLASS_LOADS, ("ps-classes", str(rho)), 1)
    counts = ps_occupancy(trace)
    assert np.array_equal(counts[:, 0], counts[:, 1:].sum(axis=1))
    for k, load in enumerate(PS_CLASS_LOADS):
        expected = load / (1.0 - rho)
        z = batch_means_z(counts[:, 1 + k], expected)
        assert abs(z) <= SIGMAS, (
            f"class {k}: mean number in system {counts[:, 1 + k].mean():.4f} "
            f"vs rho_k / (1 - rho) {expected:.4f} (z={z:.2f})"
        )
