"""Oracle estimator: request costs are known a priori.

Used for the paper's "known request costs" experiments (§6.1), where
WFQ / WF2Q / 2DFQ schedule with the true cost of each request, exactly as
packet schedulers do with packet lengths.
"""

from __future__ import annotations

from ..core.request import Request
from ..units import Cost
from .base import CostEstimator

__all__ = ["OracleEstimator"]


class OracleEstimator(CostEstimator):
    """Returns each request's true cost; learns nothing."""

    name = "oracle"
    learns = False

    def estimate(self, request: Request) -> Cost:
        return request.cost

    def observe(self, request: Request, actual_cost: Cost) -> None:
        # Nothing to learn -- the oracle already knew.
        return None
