"""Pluggable request routers for a multi-server fleet.

A router answers one question: *which healthy server gets this
request?*  The fleet hands it the request plus the current routable
server set (sorted indices); everything else a policy needs -- backlog
depths, tenant identity, a seeded RNG -- is bound once at attach time.

Policies (the ``figfleet`` sharding ablation compares all four):

``random``
    Uniform over the healthy servers, from a seeded stream
    (:func:`~repro.simulator.rng.make_rng`): the stateless baseline.
``round-robin``
    Cycles through the healthy set; even request *counts*, oblivious
    to request cost, so expensive requests can pile onto one server.
``least-backlog``
    Joins the server with the fewest queued + running requests
    (join-shortest-queue); ties break toward the lowest index, so the
    decision is deterministic.
``tenant-hash``
    Consistent hashing of the tenant id onto a replicated ring: a
    tenant's requests concentrate on one server (cache affinity, and
    per-server fair queuing then sees the tenant's full backlog), and
    when a server dies only its ring arcs move.  Uses
    :func:`~repro.simulator.rng.stable_hash`, not the salted builtin
    ``hash``.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Callable, ClassVar, Dict, List, Sequence

import numpy as np

from ..core.request import Request
from ..errors import ConfigurationError
from ..simulator.rng import make_rng, stable_hash

if TYPE_CHECKING:
    from .fleet import Fleet

__all__ = [
    "Router",
    "RandomRouter",
    "RoundRobinRouter",
    "LeastBacklogRouter",
    "TenantHashRouter",
    "make_router",
    "router_names",
]


class Router:
    """Routing-policy interface.

    ``bind`` is called once when the router is attached to a fleet;
    ``route`` is called per admitted request with the *sorted* list of
    routable server indices (never empty -- the fleet rejects before
    routing when no server is healthy) and returns one of them.
    """

    name: ClassVar[str] = "abstract"

    def bind(self, fleet: "Fleet", seed: int) -> None:
        """Attach to a fleet (store what ``route`` needs)."""
        self._fleet = fleet

    def route(self, request: Request, healthy: Sequence[int]) -> int:
        raise NotImplementedError


class RandomRouter(Router):
    """Uniform random placement from a seeded stream."""

    name: ClassVar[str] = "random"

    def bind(self, fleet: "Fleet", seed: int) -> None:
        super().bind(fleet, seed)
        self._rng: np.random.Generator = make_rng(seed, "fleet", "router")

    def route(self, request: Request, healthy: Sequence[int]) -> int:
        return healthy[int(self._rng.integers(0, len(healthy)))]


class RoundRobinRouter(Router):
    """Cycle through the healthy servers in index order."""

    name: ClassVar[str] = "round-robin"

    def bind(self, fleet: "Fleet", seed: int) -> None:
        super().bind(fleet, seed)
        self._next = 0

    def route(self, request: Request, healthy: Sequence[int]) -> int:
        choice = healthy[self._next % len(healthy)]
        self._next += 1
        return choice


class LeastBacklogRouter(Router):
    """Join the server with the fewest queued + running requests.

    Ties break toward the lowest server index (deterministic); a
    crashed-but-undetected server keeps accumulating backlog, so this
    policy organically steers away from it even before the health
    monitor fires -- the figures note where that softens the contrast.
    """

    name: ClassVar[str] = "least-backlog"

    def route(self, request: Request, healthy: Sequence[int]) -> int:
        fleet = self._fleet
        best = healthy[0]
        best_depth = -1
        for index in healthy:
            server = fleet.servers[index]
            depth = server.scheduler.backlog + server.busy_workers
            if best_depth < 0 or depth < best_depth:
                best, best_depth = index, depth
        return best


#: Points each server owns on the :class:`TenantHashRouter` ring.
RING_REPLICAS = 32


class TenantHashRouter(Router):
    """Consistent hashing of tenant ids onto a replicated server ring.

    Each server owns :data:`RING_REPLICAS` pseudo-random points on a
    32-bit ring; a tenant maps to the first point clockwise of its own
    hash.  Unhealthy servers are skipped by walking further clockwise,
    so a crash moves only the dead server's arcs (the classic
    consistent-hashing property) and every surviving tenant keeps its
    server.
    """

    name: ClassVar[str] = "tenant-hash"

    def bind(self, fleet: "Fleet", seed: int) -> None:
        super().bind(fleet, seed)
        points: List[tuple[int, int]] = []
        for index in range(len(fleet.servers)):
            for replica in range(RING_REPLICAS):
                points.append(
                    (stable_hash("fleet-ring", str(index), str(replica)), index)
                )
        points.sort()
        self._ring_keys = [key for key, _ in points]
        self._ring_servers = [server for _, server in points]

    def route(self, request: Request, healthy: Sequence[int]) -> int:
        routable = frozenset(healthy)
        start = bisect.bisect_left(
            self._ring_keys, stable_hash("tenant", request.tenant_id)
        )
        size = len(self._ring_servers)
        for step in range(size):
            server = self._ring_servers[(start + step) % size]
            if server in routable:
                return server
        return healthy[0]  # pragma: no cover - routable is never empty


_ROUTERS: Dict[str, Callable[[], Router]] = {
    RandomRouter.name: RandomRouter,
    RoundRobinRouter.name: RoundRobinRouter,
    LeastBacklogRouter.name: LeastBacklogRouter,
    TenantHashRouter.name: TenantHashRouter,
}


def router_names() -> List[str]:
    """Registered routing policies, sorted."""
    return sorted(_ROUTERS)


def make_router(name: str) -> Router:
    """Instantiate a routing policy by registry name."""
    factory = _ROUTERS.get(name)
    if factory is None:
        raise ConfigurationError(
            f"unknown router {name!r}; choose from {router_names()}"
        )
    return factory()
