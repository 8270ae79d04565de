"""Workload models: distributions, tenant specs, traces, and arrivals.

Reproduces the statistical environment of the paper's evaluation:

* :mod:`~repro.workloads.azure` -- the Azure-Storage-like model (APIs
  ``A..K``, reference tenants ``T1..T12``, random tenant populations);
* :mod:`~repro.workloads.synthetic` -- the Figure 8 small/expensive
  mixes and the fixed-cost probe tenants ``t1..t7``;
* :mod:`~repro.workloads.trace` -- trace generation, persistence,
  replay-speed rescaling, and unpredictability scrambling;
* :mod:`~repro.workloads.build` -- wiring specs onto a live server.
"""

from .arrivals import (
    ArrivalProcess,
    Backlogged,
    DecayingBurstArrivals,
    OnOffArrivals,
    PoissonArrivals,
)
from .azure import (
    API_NAMES,
    NAMED_TENANT_IDS,
    api_population_distribution,
    backlogged_variant,
    named_tenant,
    named_tenants,
    random_tenant,
    random_tenants,
)
from .build import attach_specs, attach_trace
from .distributions import (
    CostDistribution,
    FixedCost,
    LogNormalCost,
    LogUniformCost,
    MixtureCost,
    NormalCost,
)
from .spec import TenantSpec
from .synthetic import (
    FIXED_COST_IDS,
    FIXED_COSTS,
    expensive_requests_population,
    expensive_tenant,
    fixed_cost_tenants,
    small_tenant,
)
from .trace import (
    Trace,
    TraceRecord,
    chunk_trace,
    generate_trace,
    load_trace,
    merge_traces,
    rescale_trace,
    save_trace,
    scramble_trace,
    thin_trace,
    trace_statistics,
)

__all__ = [
    "ArrivalProcess",
    "Backlogged",
    "PoissonArrivals",
    "DecayingBurstArrivals",
    "OnOffArrivals",
    "CostDistribution",
    "FixedCost",
    "NormalCost",
    "LogNormalCost",
    "LogUniformCost",
    "MixtureCost",
    "TenantSpec",
    "API_NAMES",
    "NAMED_TENANT_IDS",
    "api_population_distribution",
    "named_tenant",
    "named_tenants",
    "random_tenant",
    "random_tenants",
    "backlogged_variant",
    "small_tenant",
    "expensive_tenant",
    "expensive_requests_population",
    "fixed_cost_tenants",
    "FIXED_COST_IDS",
    "FIXED_COSTS",
    "Trace",
    "TraceRecord",
    "generate_trace",
    "merge_traces",
    "scramble_trace",
    "rescale_trace",
    "thin_trace",
    "chunk_trace",
    "save_trace",
    "load_trace",
    "trace_statistics",
    "attach_specs",
    "attach_trace",
]
