"""Metrics used in the paper's evaluation (§6):

* service rate and **service lag** against a fluid GPS reference;
* **service lag variation** sigma(lag) -- the burstiness headline;
* request **latency** percentiles (focus on the 99th);
* the **Gini index** of instantaneous fairness.

Every run's statistics live in one store that keeps every value,
:class:`~repro.metrics.store.MetricsPartial`, read back as
:class:`RunMetrics` -- DESIGN.md §13.
"""

from .collector import DispatchRecord, MetricsCollector, RunMetrics
from .gini import gini_index
from .latency import LatencyStats, latency_stats, percentile_table, speedup
from .service import ServiceSeries
from .store import MetricsPartial, ServiceRecorder
from .summary import (
    CostSummary,
    cdf_points,
    coefficient_of_variation,
    cost_summary,
)

__all__ = [
    "MetricsCollector",
    "RunMetrics",
    "DispatchRecord",
    "MetricsPartial",
    "ServiceRecorder",
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
