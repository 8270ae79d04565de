"""Workload specification objects.

A :class:`TenantSpec` describes one tenant's behaviour fully:

* which APIs it calls and with what probability;
* the cost distribution of each (tenant, API) pair -- per-tenant,
  because the paper shows each API is used predictably by some tenants
  and unpredictably by others (Figure 3);
* its arrival behaviour: continuously backlogged (closed loop) or an
  open-loop arrival process.

Specs are pure data plus samplers; they are turned into simulator
sources by :mod:`repro.workloads.build` and into offline traces by
:mod:`repro.workloads.trace`, both reading requests from
:meth:`TenantSpec.sample_costs`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import WorkloadError
from .arrivals import ArrivalProcess, Backlogged
from .distributions import CostDistribution, FixedCost, LogNormalCost, NormalCost

__all__ = ["TenantSpec"]

#: Requests :meth:`TenantSpec.request_stream` draws at a time.
BLOCK = 64

#: Distributions whose ``sample_many(rng, n)`` equals ``n`` calls of
#: ``sample(rng)`` (exact types: a subclass may override ``sample``).
_BULK_EXACT = (FixedCost, NormalCost, LogNormalCost)

#: A block of requests, ``(picks, costs)``.
_Block = Tuple[np.ndarray, np.ndarray]


@dataclass
class TenantSpec:
    """Complete description of one tenant's workload.

    Parameters
    ----------
    tenant_id:
        Flow identifier.
    api_costs:
        Mapping of API name to the cost distribution this tenant's calls
        to that API follow.
    api_weights:
        Relative probability of each API; defaults to uniform over
        ``api_costs``.
    arrivals:
        Arrival behaviour; :class:`~repro.workloads.arrivals.Backlogged`
        for closed-loop tenants or any open-loop
        :class:`~repro.workloads.arrivals.ArrivalProcess`.
    weight:
        Fair-share weight (``phi_f``); the paper evaluates equal weights.
    """

    tenant_id: str
    api_costs: Dict[str, CostDistribution]
    api_weights: Optional[Dict[str, float]] = None
    arrivals: ArrivalProcess = field(default_factory=Backlogged)
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.api_costs:
            raise WorkloadError(f"tenant {self.tenant_id} has no APIs")
        if self.api_weights is not None:
            missing = set(self.api_weights) - set(self.api_costs)
            if missing:
                raise WorkloadError(
                    f"tenant {self.tenant_id}: weights for unknown APIs {missing}"
                )
        if not 0.0 < self.weight < math.inf:
            raise WorkloadError(
                f"tenant {self.tenant_id}: weight must be positive and "
                f"finite, got {self.weight}"
            )

    @property
    def backlogged(self) -> bool:
        return isinstance(self.arrivals, Backlogged)

    def mean_cost(self) -> float:
        """Mean request cost across the tenant's API mix."""
        names, probs = self._api_mix()
        return float(
            sum(p * self.api_costs[name].mean() for name, p in zip(names, probs))
        )

    def sample_costs(
        self, rng: np.random.Generator, n: int
    ) -> Tuple[List[str], np.ndarray, np.ndarray]:
        """Draw ``n`` requests at once as ``(apis, picks, costs)``: request
        ``k`` calls ``apis[picks[k]]`` and costs ``costs[k]``.

        The one definition of a tenant's requests: ``a`` then ``b`` draws
        give exactly ``a + b``, so traces draw all at once and
        :meth:`request_stream` in blocks.  A single-API tenant whose cost
        distribution samples in bulk stream-identically (see
        :meth:`~repro.workloads.distributions.CostDistribution.sample_many`)
        draws in one call.  Every other tenant loops per request: a
        multi-API tenant interleaves its API pick and cost draws.
        """
        names, draw = self._cost_sampler()
        picks, costs = draw(rng, n)
        return names, picks, costs

    def request_stream(
        self, rng: np.random.Generator
    ) -> Iterator[Tuple[str, float]]:
        """The endless ``(api, cost)`` stream of a closed-loop tenant.

        It reads :meth:`sample_costs` in blocks of :data:`BLOCK`, so its
        ``next`` runs a Python frame only once per block.  A block may
        draw past a run's last request: harmless, because ``rng`` serves
        this stream alone (DESIGN.md §18).  The API mix is checked here.
        """
        names, draw = self._cost_sampler()
        api_of = names.__getitem__

        def block(rng: np.random.Generator) -> Iterator[Tuple[str, float]]:
            picks, costs = draw(rng, BLOCK)
            return zip(map(api_of, picks.tolist()), costs.tolist())

        return chain.from_iterable(map(block, repeat(rng)))

    def _cost_sampler(
        self,
    ) -> Tuple[List[str], Callable[[np.random.Generator, int], _Block]]:
        """``(apis, draw)``, the API mix computed once: ``draw(rng, n)``
        gives the next ``n`` requests as ``(picks, costs)``."""
        names, probs = self._api_mix()
        dists = [self.api_costs[name] for name in names]
        if len(names) == 1:
            dist = dists[0]
            bulk = type(dist) in _BULK_EXACT

            def draw_single(rng: np.random.Generator, n: int) -> _Block:
                if bulk:
                    costs = dist.sample_many(rng, n)
                else:
                    costs = np.array([dist.sample(rng) for _ in range(n)], float)
                return np.zeros(n, dtype=np.intp), costs

            return names, draw_single
        # One uniform draw picks the API, with bisect_right over a float
        # list: the index np.searchsorted(side="right") gives.
        bounds = np.cumsum(probs).tolist()
        last = len(names) - 1
        samplers = [dist.sample for dist in dists]

        def draw_mixed(rng: np.random.Generator, n: int) -> _Block:
            random = rng.random
            picks: List[int] = []
            costs: List[float] = []
            for _ in range(n):
                index = bisect_right(bounds, random())
                if index > last:
                    index = last
                picks.append(index)
                costs.append(samplers[index](rng))
            return np.array(picks, dtype=np.intp), np.array(costs, dtype=float)

        return names, draw_mixed

    def _api_mix(self) -> Tuple[List[str], np.ndarray]:
        names = sorted(self.api_costs)
        if self.api_weights is None:
            probs = np.full(len(names), 1.0 / len(names))
        else:
            raw = np.array([self.api_weights.get(name, 0.0) for name in names])
            total = raw.sum()
            if total <= 0:
                raise WorkloadError(
                    f"tenant {self.tenant_id}: api_weights sum to {total}"
                )
            probs = raw / total
        return names, probs
