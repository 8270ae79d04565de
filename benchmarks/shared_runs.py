"""Cached expensive experiment runs shared between benchmark modules.

Figures 9/10 share one production run and Figures 11/12 share one
unpredictability sweep; caching keeps the committed benchmark suite
within a few minutes while each figure module still prints its own
series.  The scale used here (duration, tenant counts) is a reduction
of the paper's setup; EXPERIMENTS.md records the exact factors.

The runs execute serially and uncached, the defaults of the experiment
entry points; ``benchmarks/test_bench_parallel_engine.py`` times the
process pool and the run cache on their own.
"""

from __future__ import annotations

from functools import lru_cache

from repro.experiments.production import production_config, run_production
from repro.experiments.unpredictable import (
    run_unpredictable_sweep,
    unpredictable_config,
)

# -- CI-scale knobs (paper scale in parentheses) ---------------------------
PRODUCTION_THREADS = 32          # (32)
PRODUCTION_DURATION = 6.0        # (15 s)
PRODUCTION_RANDOM_TENANTS = 80   # (250)
UNPRED_DURATION = 8.0            # (15 s)
UNPRED_RANDOM_TENANTS = 120      # (300)
UNPRED_FRACTIONS = (0.0, 0.33, 0.66)
UNPRED_UTILIZATION = 1.3


@lru_cache(maxsize=1)
def production_run():
    """Figures 9/10: known costs, production-like workload, with the
    fixed-cost probes t1..t7 and T1..T12 run as continuously backlogged
    yardsticks (their service-lag role in the paper's figures)."""
    config = production_config(duration=PRODUCTION_DURATION)
    return run_production(
        num_random=PRODUCTION_RANDOM_TENANTS,
        include_fixed=True,
        config=config,
        named_mode="backlogged",
        # Half the capacity in replayed load; the backlogged yardsticks
        # (T1..T12, t1..t7) soak the rest, keeping the server saturated
        # with genuinely competing tenants -- the contended known-cost
        # regime of §6.1.2.
        open_loop_utilization=0.5,
    )


@lru_cache(maxsize=1)
def unpredictable_sweep():
    """Figure 12: unknown costs at 0% / 33% / 66% unpredictable, with
    the fixed-cost probes included for the bottom-right panel."""
    config = unpredictable_config(duration=UNPRED_DURATION)
    return run_unpredictable_sweep(
        fractions=UNPRED_FRACTIONS,
        num_random=UNPRED_RANDOM_TENANTS,
        include_fixed=True,
        config=config,
        open_loop_utilization=UNPRED_UTILIZATION,
    )


@lru_cache(maxsize=1)
def unpredictable_sweep_service():
    """Figure 11: the service-smoothness view of the same experiment,
    run without the heavy fixed-cost probes (whose constant 0.07-1 s
    requests dominate the pool at this reduced scale and mask the
    schedulers' treatment of the workload's own unpredictability)."""
    config = unpredictable_config(duration=UNPRED_DURATION)
    return run_unpredictable_sweep(
        fractions=UNPRED_FRACTIONS,
        num_random=150,
        include_fixed=False,
        config=config,
        open_loop_utilization=UNPRED_UTILIZATION,
    )
