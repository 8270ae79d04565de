"""Weighted fluid GPS, stepped from event to event.

The reference ``repro.simulator.gps.GPSReference`` is checked against
(``tests/test_gps.py``).  It imports nothing from ``repro`` and keeps no
virtual time: between two events every backlogged flow ``f`` is served
at ``C * w_f / W``, where ``W`` sums the weights of the backlogged
flows (paper §6: the reference is a GPS system with the pool's rate).
An event is the next arrival, the next flow drain at the current rates,
or the next sample time.  Deliberately naive: O(flows) work per event.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: One arrival: ``(time, flow, cost, weight)``.
Arrival = Tuple[float, str, float, float]


def fluid_service(
    capacity: float, arrivals: Sequence[Arrival], sample_times: Sequence[float]
) -> List[Dict[str, float]]:
    """Cumulative service of every flow seen so far, at each sample time.

    ``arrivals`` and ``sample_times`` are sorted by time.
    """
    backlog: Dict[str, float] = {}
    weight: Dict[str, float] = {}
    served: Dict[str, float] = {}
    samples: List[Dict[str, float]] = []
    now = 0.0
    i = 0
    for sample_time in sample_times:
        while True:
            while i < len(arrivals) and arrivals[i][0] <= now:
                _, flow, cost, w = arrivals[i]
                weight[flow] = w
                backlog[flow] = backlog.get(flow, 0.0) + cost
                served.setdefault(flow, 0.0)
                i += 1
            active = [f for f, b in backlog.items() if b > 0.0]
            total = sum(weight[f] for f in active)
            rates = {f: capacity * weight[f] / total for f in active}
            drains = {f: now + backlog[f] / rates[f] for f in active}
            step_to = min([sample_time] + list(drains.values()))
            if i < len(arrivals):
                step_to = min(step_to, arrivals[i][0])
            for f in active:
                if drains[f] <= step_to:
                    served[f] += backlog[f]
                    backlog[f] = 0.0
                else:
                    amount = rates[f] * (step_to - now)
                    served[f] += amount
                    backlog[f] -= amount
            now = step_to
            if now >= sample_time:
                break
        samples.append(dict(served))
    return samples
