"""Metrics used in the paper's evaluation (§6):

* service rate and **service lag** against a fluid GPS reference;
* **service lag variation** sigma(lag) -- the burstiness headline;
* request **latency** percentiles (focus on the 99th);
* the **Gini index** of instantaneous fairness.

Every run's statistics live in one store,
:class:`~repro.metrics.streaming.MetricsPartial`, read back as
:class:`RunMetrics`.  The collection mode picks a row of its capacity
table: ``exact`` (every value kept, the default) or ``streaming``
(bounded sketches for 10M-request-scale runs) -- DESIGN.md §13.
"""

from .collector import (
    COLLECTOR_MODES,
    DispatchRecord,
    MetricsCollector,
    RunMetrics,
)
from .gini import gini_index
from .latency import LatencyStats, latency_stats, percentile_table, speedup
from .service import ServiceSeries
from .streaming import (
    CAPACITIES,
    BoundedServiceSeries,
    Capacities,
    MetricsPartial,
    QuantileDigest,
    ReservoirSample,
    StreamingMoments,
)
from .summary import (
    CostSummary,
    cdf_points,
    coefficient_of_variation,
    cost_summary,
)

__all__ = [
    "MetricsCollector",
    "RunMetrics",
    "COLLECTOR_MODES",
    "CAPACITIES",
    "Capacities",
    "DispatchRecord",
    "MetricsPartial",
    "StreamingMoments",
    "QuantileDigest",
    "ReservoirSample",
    "BoundedServiceSeries",
    "ServiceSeries",
    "gini_index",
    "LatencyStats",
    "latency_stats",
    "percentile_table",
    "speedup",
    "CostSummary",
    "cost_summary",
    "coefficient_of_variation",
    "cdf_points",
]
