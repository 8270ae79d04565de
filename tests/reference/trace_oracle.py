"""The per-record trace generator, kept as the oracle of the columnar one.

This is the row-at-a-time trace path that ``repro.workloads`` used before
it stored traces as columns, copied verbatim: the three arrival-time
loops, the cost samplers and ``request_sampler``, one record per arrival,
the ``(time, tenant)`` row sort, ``thin_trace``, ``scramble_trace``,
``production_trace`` and the unpredictable experiment's scrambling step.
``tests/test_trace_columnar.py`` requires the columnar path to reproduce
it exactly.

It imports nothing from ``repro.workloads``: specs, arrival processes
and cost distributions are read through their public attributes and
dispatched on their class names.  Rows are plain
``(time, tenant, api, cost)`` tuples.

The one deliberate change from the copied code is in
:func:`production_trace`: when the named tenants alone exceed the load
budget, every random record is dropped (the copied code kept them all).
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.simulator.rng import make_rng

Row = Tuple[float, str, str, float]


# -- arrival processes ---------------------------------------------------------


def poisson_arrival_times(process, rng: np.random.Generator, duration: float) -> np.ndarray:
    span = duration - process.start_time
    if span <= 0:
        return np.empty(0)
    expected = process.rate * span
    # Draw gaps in slabs until the horizon is covered.
    times = []
    t = process.start_time
    batch = max(16, int(expected * 1.2))
    while t < duration:
        gaps = rng.exponential(1.0 / process.rate, size=batch)
        for gap in gaps:
            t += gap
            if t >= duration:
                break
            times.append(t)
    return np.array(times)


def _rate_at(process, t: float) -> float:
    decayed = process.peak_rate * math.exp(-(t - process.start_time) / process.tau)
    return max(process.floor_rate, decayed)


def decaying_burst_arrival_times(
    process, rng: np.random.Generator, duration: float
) -> np.ndarray:
    times = []
    t = process.start_time
    lam_max = process.peak_rate
    while t < duration:
        t += rng.exponential(1.0 / lam_max)
        if t >= duration:
            break
        if rng.random() <= _rate_at(process, t) / lam_max:
            times.append(t)
    return np.array(times)


def on_off_arrival_times(process, rng: np.random.Generator, duration: float) -> np.ndarray:
    times = []
    t = process.start_time
    on = True
    while t < duration:
        period = rng.exponential(process.mean_on if on else process.mean_off)
        end = min(t + period, duration)
        if on:
            tick = t
            while True:
                tick += rng.exponential(1.0 / process.burst_rate)
                if tick >= end:
                    break
                times.append(tick)
        t = end
        on = not on
    return np.array(times)


ARRIVALS = {
    "PoissonArrivals": poisson_arrival_times,
    "DecayingBurstArrivals": decaying_burst_arrival_times,
    "OnOffArrivals": on_off_arrival_times,
}


def is_open_loop(process) -> bool:
    return type(process).__name__ in ARRIVALS


def arrival_times(process, rng: np.random.Generator, duration: float) -> np.ndarray:
    return ARRIVALS[type(process).__name__](process, rng, duration)


# -- costs ---------------------------------------------------------------------


def sample(dist, rng: np.random.Generator) -> float:
    """One draw of ``dist``, as its ``sample`` method drew it."""
    kind = type(dist).__name__
    if kind == "FixedCost":
        return dist.cost
    if kind == "NormalCost":
        return max(dist.floor, rng.normal(dist.mu, dist.sigma))
    if kind == "LogNormalCost":
        mu = math.log(dist.median)
        sigma = dist.sigma_decades * math.log(10.0)
        value = float(rng.lognormal(mu, sigma))
        if dist.low is not None and value < dist.low:
            return dist.low
        if dist.high is not None and value > dist.high:
            return dist.high
        return value
    if kind == "LogUniformCost":
        return float(math.exp(rng.uniform(math.log(dist.low), math.log(dist.high))))
    if kind == "MixtureCost":
        cumulative = np.cumsum(dist.weights)
        index = int(np.searchsorted(cumulative, rng.random(), side="right"))
        index = min(index, len(dist.components) - 1)
        return sample(dist.components[index], rng)
    raise TypeError(f"no oracle for {kind}")


def api_mix(spec) -> Tuple[list, np.ndarray]:
    names = sorted(spec.api_costs)
    if spec.api_weights is None:
        probs = np.full(len(names), 1.0 / len(names))
    else:
        raw = np.array([spec.api_weights.get(name, 0.0) for name in names])
        probs = raw / raw.sum()
    return names, probs


def request_sampler(spec, rng: np.random.Generator) -> Callable[[], Tuple[str, float]]:
    names, probs = api_mix(spec)
    costs = spec.api_costs

    if len(names) == 1:
        only = names[0]
        dist = costs[only]

        def sample_single() -> Tuple[str, float]:
            return only, sample(dist, rng)

        return sample_single

    cumulative = np.cumsum(probs)

    def sample_any() -> Tuple[str, float]:
        index = int(np.searchsorted(cumulative, rng.random(), side="right"))
        index = min(index, len(names) - 1)
        api = names[index]
        return api, sample(costs[api], rng)

    return sample_any


# -- traces --------------------------------------------------------------------


def generate_trace(specs: Sequence, duration: float, seed: int = 0) -> List[Row]:
    records: List[Row] = []
    for spec in specs:
        arrival_rng = make_rng(seed, "arrivals", spec.tenant_id)
        cost_rng = make_rng(seed, "costs", spec.tenant_id)
        sampler = request_sampler(spec, cost_rng)
        for time in arrival_times(spec.arrivals, arrival_rng, duration):
            api, cost = sampler()
            records.append((float(time), spec.tenant_id, api, cost))
    records.sort(key=lambda r: (r[0], r[1]))
    return records


def thin_trace(trace: Sequence[Row], keep_fraction: float, seed: int = 0) -> List[Row]:
    if keep_fraction >= 1.0:
        return list(trace)
    rng = make_rng(seed, "thin")
    keep = rng.random(len(trace)) < keep_fraction
    return [record for record, k in zip(trace, keep) if k]


def scramble_trace(trace: Sequence[Row], tenants: Sequence[str], seed: int = 0) -> List[Row]:
    if not trace:
        return []
    pool = [(r[2], r[3]) for r in trace]
    rng = make_rng(seed, "scramble", *sorted(tenants))
    selected = set(tenants)
    out: List[Row] = []
    indices = rng.integers(0, len(pool), size=len(trace))
    for record, index in zip(trace, indices):
        if record[1] in selected:
            api, cost = pool[int(index)]
            out.append((record[0], record[1], api, cost))
        else:
            out.append(record)
    return out


def production_trace(
    specs: Sequence, config, open_loop_utilization: float = 1.2, speed: float = 1.0
) -> List[Row]:
    open_loop = [s for s in specs if is_open_loop(s.arrivals)]
    if not open_loop:
        return []
    trace = generate_trace(open_loop, config.duration * speed, seed=config.seed)
    budget = open_loop_utilization * config.capacity * config.duration * speed
    random_cost = sum(r[3] for r in trace if r[1].startswith("R"))
    fixed_cost = sum(r[3] for r in trace if not r[1].startswith("R"))
    random_budget = budget - fixed_cost
    if random_budget <= 0:
        # The fix: the named tenants alone exceed the budget.
        return [r for r in trace if not r[1].startswith("R")]
    if 0 < random_budget < random_cost:
        keep = random_budget / random_cost
        random_part = thin_trace(
            [r for r in trace if r[1].startswith("R")], keep, seed=config.seed
        )
        fixed_part = [r for r in trace if not r[1].startswith("R")]
        trace = sorted(random_part + fixed_part, key=lambda r: (r[0], r[1]))
    return trace


def scrambled_trace(
    specs: Sequence,
    config,
    unpredictable_fraction: float,
    open_loop_utilization: float,
    speed: float,
) -> List[Row]:
    trace = production_trace(
        specs, config, open_loop_utilization=open_loop_utilization, speed=speed
    )
    if unpredictable_fraction <= 0.0 or not trace:
        return trace
    candidate_ids = sorted(
        s.tenant_id
        for s in specs
        if is_open_loop(s.arrivals) and s.tenant_id.startswith("R")
    )
    rng = make_rng(config.seed, "unpredictable-selection")
    count = int(round(unpredictable_fraction * len(candidate_ids)))
    chosen = list(rng.choice(candidate_ids, size=count, replace=False))
    return scramble_trace(trace, chosen, seed=config.seed)
