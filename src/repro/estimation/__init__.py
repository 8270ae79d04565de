"""Cost estimators for scheduling with unknown request costs (paper §5).

The scheduler charges tenants the *estimated* cost at dispatch time and
reconciles against measured usage via retroactive and refresh charging.
The choice of estimator is the second half of the 2DFQ^E contribution:

* :class:`OracleEstimator` -- true costs (the "known costs" experiments);
* :class:`EMAEstimator` -- per-tenant per-API exponential moving average,
  the baseline used by WFQ^E and WF2Q^E;
* :class:`PessimisticEstimator` -- alpha-decayed maximum, the 2DFQ^E
  strategy that pushes unpredictable tenants toward expensive threads;
* :class:`LastValueEstimator` -- the naive last-observed cost from the
  §5 estimate-gaming example.
"""

from .base import CostEstimator, KeyedEstimator
from .ema import EMAEstimator
from .last_value import LastValueEstimator
from .oracle import OracleEstimator
from .pessimistic import PessimisticEstimator

__all__ = [
    "CostEstimator",
    "KeyedEstimator",
    "OracleEstimator",
    "EMAEstimator",
    "PessimisticEstimator",
    "LastValueEstimator",
]
