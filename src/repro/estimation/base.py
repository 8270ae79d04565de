"""Cost estimator interface.

Paper §3.2 and §5: request costs are unknown at schedule time, so the
scheduler works with an *estimate* and reconciles the error later through
retroactive and refresh charging.  An estimator maps a request to a
predicted cost before dispatch and is updated with the measured cost once
the request completes.  All estimators in this package key their state on
``(tenant_id, api)`` -- the paper found per-tenant per-API state necessary
because each API is used both predictably and unpredictably by different
tenants (Figure 3).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Tuple

from ..core.request import Request
from ..errors import ConfigurationError
from ..units import Cost

__all__ = ["CostEstimator", "KeyedEstimator"]


class CostEstimator(ABC):
    """Predicts request costs and learns from completed requests."""

    #: Human-readable name used in experiment reports.
    name: str = "estimator"

    #: Whether :meth:`observe` can move an estimate.  A scheduler keeps
    #: each backlogged tenant's selection key cached and re-files the
    #: tenant after a completion only when its start tag moved or this
    #: is true.  Leave it true unless ``estimate`` is a pure function of
    #: the request that ``observe`` never changes (the oracle's true
    #: cost); a custom estimator that declares ``False`` and still
    #: learns leaves stale keys behind, and one whose estimates move
    #: outside ``observe`` must call the scheduler's
    #: ``reindex_backlogged()`` whatever it declares.
    learns: bool = True

    #: Attached :class:`repro.obs.Tracer`, or ``None``.  A class-level
    #: default keeps subclass ``__init__`` signatures untouched; the
    #: instrumentation guard is the same single attribute check the
    #: schedulers use.
    _trace = None

    def attach_tracer(self, tracer) -> None:
        """Attach a tracer (or detach with ``None``); ``estimate``
        events are emitted on :meth:`observe` (estimator refreshes)."""
        self._trace = tracer

    @abstractmethod
    def estimate(self, request: Request) -> Cost:
        """Return the predicted cost of ``request`` (must be positive)."""

    @abstractmethod
    def observe(self, request: Request, actual_cost: Cost) -> None:
        """Incorporate the measured total cost of a completed request."""

    def reset(self) -> None:
        """Forget all learned state (default: no state)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class KeyedEstimator(CostEstimator):
    """Base for estimators holding one scalar state per (tenant, API) key.

    Subclasses implement :meth:`_update` (new state from old state and an
    observation) and may override :meth:`_initial_state` (state after the
    first observation).  Before any observation for a key, the estimator
    returns ``initial_estimate``.

    Parameters
    ----------
    initial_estimate:
        Cost assumed for a (tenant, API) pair never seen before.  The
        paper does not prescribe a cold-start value; experiments configure
        it to a small optimistic cost so that cold tenants behave like the
        moving-average baselines the paper compares against.
    """

    def __init__(self, initial_estimate: Cost = 1.0) -> None:
        if not 0.0 < initial_estimate < math.inf:
            raise ConfigurationError(
                "initial_estimate must be positive and finite, got "
                f"{initial_estimate}"
            )
        self._initial: Cost = float(initial_estimate)
        self._state: Dict[Tuple[str, str], Cost] = {}

    @property
    def initial_estimate(self) -> Cost:
        return self._initial

    def estimate(self, request: Request) -> Cost:
        # The key is built inline: the ``Request.key`` property costs a
        # frame on every estimate and observation.
        return self._state.get((request.tenant_id, request.api), self._initial)

    def observe(self, request: Request, actual_cost: Cost) -> None:
        if actual_cost < 0:
            raise ConfigurationError(f"actual_cost must be >= 0, got {actual_cost}")
        key = (request.tenant_id, request.api)
        old = self._state.get(key)
        if old is None:
            new = self._initial_state(actual_cost)
        else:
            new = self._update(old, actual_cost)
        self._state[key] = new
        trace = self._trace
        if trace is not None:
            trace.estimate(
                request.completion_time,
                request.tenant_id,
                api=request.api,
                old=old,
                new=new,
                actual=actual_cost,
            )

    def peek(self, tenant_id: str, api: str = "default") -> Cost:
        """Current estimate for a key without a request object (testing)."""
        return self._state.get((tenant_id, api), self._initial)

    def reset(self) -> None:
        self._state.clear()

    # -- hooks ---------------------------------------------------------------

    def _initial_state(self, first_cost: Cost) -> Cost:
        """State after the first observation (default: the observation)."""
        return first_cost

    @abstractmethod
    def _update(self, old: Cost, cost: Cost) -> Cost:
        """Return the new state given the old state and an observed cost."""
